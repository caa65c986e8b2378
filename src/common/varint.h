#ifndef FGLB_COMMON_VARINT_H_
#define FGLB_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fglb {

// LEB128 varints, zigzag mapping and fixed-width little-endian scalars
// over std::string buffers, plus CRC-32 — the byte-level codec shared
// by FGLBCAP1 captures, FGLBCKPT1 checkpoints, the stats channel and
// admission state. All readers are bounds-checked: they never read past
// `limit` and report malformed input by returning 0 / false, so a
// truncated or corrupted file can not crash a decoder.

// Appends `v` as a base-128 varint (1..10 bytes).
void PutVarint64(std::string* dst, uint64_t v);

// Decodes a varint starting at `p` (strictly before `limit`). Returns
// the number of bytes consumed, or 0 if the encoding is truncated,
// longer than 10 bytes, or overflows 64 bits (a tenth byte above 1).
size_t GetVarint64(const uint8_t* p, const uint8_t* limit, uint64_t* v);

// Maps signed deltas onto small unsigned varints. Works for the full
// int64 domain (including the wrap-around deltas of uint64 sequences).
constexpr uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Fixed-width little-endian scalars (bit-exact doubles travel as their
// IEEE-754 bit pattern via PutFixed64).
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
bool GetFixed32(const uint8_t* p, const uint8_t* limit, uint32_t* v);
bool GetFixed64(const uint8_t* p, const uint8_t* limit, uint64_t* v);

uint64_t DoubleToBits(double d);
double BitsToDouble(uint64_t bits);

// CRC-32 (IEEE 802.3 polynomial, the zlib crc32). `seed` chains
// incremental updates: Crc32(b, n2, Crc32(a, n1)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace fglb

#endif  // FGLB_COMMON_VARINT_H_

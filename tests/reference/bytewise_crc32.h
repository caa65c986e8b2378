#ifndef FGLB_TESTS_REFERENCE_BYTEWISE_CRC32_H_
#define FGLB_TESTS_REFERENCE_BYTEWISE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fglb::reference {

// CRC-32 (IEEE 802.3 polynomial) one table lookup per byte, exactly as
// fglb::Crc32 computed it before it went slicing-by-8. The oracle of
// the Crc32 differential test: both must agree for every length,
// alignment and chained seed.
uint32_t BytewiseCrc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_BYTEWISE_CRC32_H_

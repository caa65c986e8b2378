// Property/fuzz coverage of the byte-level codec under the FGLBCAP1
// capture format: random streams must round-trip exactly, and random
// byte corruption must be detected by the checksums — never a crash,
// never silently wrong data.

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/varint.h"
#include "reference/bytewise_crc32.h"
#include "replay/capture.h"
#include "sim/simulator.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- varint / zigzag properties ---

TEST(ReplayCodecTest, VarintRoundTripsEdgeAndRandomValues) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  UINT64_MAX, UINT64_MAX - 1,
                                  1ULL << 32, (1ULL << 63) - 1, 1ULL << 63};
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    // Mix full-range and small values (small ones exercise 1-2 byte
    // encodings, where off-by-ones would hide).
    values.push_back(rng() >> (rng() % 64));
  }
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    ASSERT_LE(buf.size(), 10u);
    uint64_t decoded = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    ASSERT_EQ(GetVarint64(p, p + buf.size(), &decoded), buf.size()) << v;
    EXPECT_EQ(decoded, v);
  }
}

TEST(ReplayCodecTest, VarintRejectsTruncation) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng() >> (rng() % 64);
    std::string buf;
    PutVarint64(&buf, v);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    for (size_t keep = 0; keep < buf.size(); ++keep) {
      uint64_t decoded = 0;
      EXPECT_EQ(GetVarint64(p, p + keep, &decoded), 0u)
          << v << " truncated to " << keep;
    }
  }
}

TEST(ReplayCodecTest, VarintRejectsOverlongEncoding) {
  // 11 continuation bytes never terminate a valid varint.
  const std::string overlong(11, '\x80');
  const uint8_t* p = reinterpret_cast<const uint8_t*>(overlong.data());
  uint64_t decoded = 0;
  EXPECT_EQ(GetVarint64(p, p + overlong.size(), &decoded), 0u);
}

TEST(ReplayCodecTest, VarintRejectsOverflowingTenthByte) {
  // The tenth byte carries bit 63 alone: FF x9 01 is UINT64_MAX, and
  // FF x9 7F would silently drop six high bits onto the same value.
  const std::string max = std::string(9, '\xFF') + '\x01';
  const uint8_t* p = reinterpret_cast<const uint8_t*>(max.data());
  uint64_t decoded = 0;
  ASSERT_EQ(GetVarint64(p, p + max.size(), &decoded), 10u);
  EXPECT_EQ(decoded, UINT64_MAX);
  for (int last = 2; last < 0x80; ++last) {
    const std::string overflow =
        std::string(9, '\xFF') + static_cast<char>(last);
    p = reinterpret_cast<const uint8_t*>(overflow.data());
    EXPECT_EQ(GetVarint64(p, p + overflow.size(), &decoded), 0u) << last;
  }
}

TEST(ReplayCodecTest, ZigZagRoundTripsFullDomain) {
  std::mt19937_64 rng(11);
  std::vector<int64_t> values = {0, 1, -1, INT64_MAX, INT64_MIN,
                                 INT64_MIN + 1};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<int64_t>(rng()));
  }
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // The uint64 wrap-around deltas the page/time encoders rely on.
  const uint64_t a = 5, b = UINT64_MAX - 2;
  const uint64_t delta = ZigZagEncode(static_cast<int64_t>(b - a));
  EXPECT_EQ(a + static_cast<uint64_t>(ZigZagDecode(delta)), b);
}

TEST(ReplayCodecTest, Crc32MatchesKnownVectorAndChains) {
  // "123456789" -> 0xCBF43926 is the standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const std::string data = "the quick brown fox";
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split,
                    Crc32(data.data(), split)),
              Crc32(data.data(), data.size()));
  }
}

TEST(ReplayCodecTest, Crc32MatchesBytewiseReference) {
  // Every length up to 4096 somewhere, every start alignment of the
  // slicing-by-8 loop, and seeds chained from earlier pieces.
  std::mt19937_64 rng(2024);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t align = static_cast<size_t>(trial) % 8;
    const size_t n = trial < 64 ? static_cast<size_t>(trial)
                                : static_cast<size_t>(rng() % 4097);
    const uint32_t seed = trial % 3 == 0 ? 0 : static_cast<uint32_t>(rng());
    const uint8_t* data = buffer.data() + align;
    ASSERT_EQ(Crc32(data, n, seed), reference::BytewiseCrc32(data, n, seed))
        << "length " << n << " alignment " << align << " seed " << seed;
    const size_t split = n == 0 ? 0 : rng() % (n + 1);
    EXPECT_EQ(Crc32(data + split, n - split, Crc32(data, split, seed)),
              reference::BytewiseCrc32(data, n, seed));
  }
}

// --- random access streams through FGLBCAP1 ---

// One recorded execution of a random stream: its class and accesses.
struct RandomExecution {
  ClassKey key = 0;
  std::vector<PageAccess> accesses;
};

std::vector<RandomExecution> RandomExecutions(uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<RandomExecution> executions(count);
  for (RandomExecution& e : executions) {
    // Adversarial key/page distributions: wild jumps and tight runs.
    e.key = rng() % 4 == 0 ? rng() : MakeClassKey(1, rng() % 8);
    e.accesses.resize(rng() % 40);
    for (PageAccess& a : e.accesses) {
      a.page = rng() % 4 == 0 ? rng()
                              : MakePageId(static_cast<TableId>(rng() % 4),
                                           rng() % 10000);
      a.kind = rng() % 2 == 0 ? AccessKind::kSequential : AccessKind::kRandom;
      a.is_write = rng() % 3 == 0;
    }
  }
  return executions;
}

// Writes `executions` as one replica's execution stream of a capture
// with an empty topology and returns the file's bytes.
std::string WriteRandomCapture(const std::string& path,
                               const std::vector<RandomExecution>& executions) {
  Simulator sim;
  CaptureWriter writer(&sim);
  CaptureInfo info;
  info.scenario = "codec-random";
  info.duration_seconds = static_cast<double>(executions.size());
  info.interval_seconds = 10;
  std::string error;
  EXPECT_TRUE(writer.Open(path, info, CaptureTopology{}, &error)) << error;
  for (size_t i = 0; i < executions.size(); ++i) {
    sim.ScheduleAt(static_cast<double>(i) * 0.5, [&writer, &executions, i] {
      writer.OnExecution(0, executions[i].key, executions[i].accesses);
    });
  }
  sim.RunToCompletion();
  EXPECT_TRUE(writer.Finalize({}, {}));
  return Slurp(path);
}

TEST(ReplayCodecTest, RandomTraceStreamsRoundTripExactly) {
  const std::string path = TempPath("fglb_codec_random_rt.bin");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const auto executions = RandomExecutions(seed, 1 + seed * 7);
    WriteRandomCapture(path, executions);
    Capture capture;
    std::string error;
    ASSERT_TRUE(ReadCapture(path, &capture, &error))
        << "seed " << seed << ": " << error;
    ASSERT_EQ(capture.executions.size(), executions.size());
    uint64_t total = 0;
    for (const RandomExecution& e : executions) total += e.accesses.size();
    EXPECT_EQ(capture.accesses.size(), total);
    for (size_t i = 0; i < executions.size(); ++i) {
      const CaptureExecution& exec = capture.executions[i];
      ASSERT_EQ(exec.key, executions[i].key);
      ASSERT_EQ(exec.access_count, executions[i].accesses.size());
      std::vector<PageAccess> decoded;
      capture.accesses.AppendTo(exec, &decoded);
      ASSERT_EQ(decoded.size(), exec.access_count);
      for (uint32_t j = 0; j < exec.access_count; ++j) {
        const PageAccess& got = decoded[j];
        const PageAccess& want = executions[i].accesses[j];
        ASSERT_EQ(got.page, want.page);
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.is_write, want.is_write);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, RandomTraceCorruptionAlwaysDetected) {
  const std::string path = TempPath("fglb_codec_random_fuzz.bin");
  const std::string clean = WriteRandomCapture(path, RandomExecutions(99, 60));
  ASSERT_FALSE(clean.empty());
  std::mt19937_64 rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = clean;
    const size_t pos = rng() % corrupted.size();
    const uint8_t xor_mask = static_cast<uint8_t>(1 + rng() % 255);
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ xor_mask);
    WriteBytes(path, corrupted);
    Capture capture;
    std::string error;
    // Must fail cleanly: the magic, the block checksums or the decoder
    // trap every single-byte change; silent wrong data would pass here.
    EXPECT_FALSE(ReadCapture(path, &capture, &error))
        << "byte " << pos << " ^ " << int{xor_mask};
  }
  std::remove(path.c_str());
}

// --- capture format: round-trip and corruption ---

// A small capture written through the real writer, with events spread
// over simulated time so the time-delta chain is exercised.
std::string WriteSampleCapture(const std::string& path, uint64_t seed) {
  Simulator sim;
  CaptureWriter writer(&sim);

  CaptureInfo info;
  info.seed = seed;
  info.fault_seed = seed + 1;
  info.scenario = "codec-test";
  info.fault_spec = "disk@10:server=0,factor=2,duration=5";
  info.duration_seconds = 30;
  info.interval_seconds = 10;
  info.mrc_sample_rate = 0.5;
  info.max_migrations_per_interval = 2;

  CaptureTopology topo;
  topo.servers.push_back({8, 32768, 0.002, 0.006, 0.001});
  ApplicationSpec app;
  app.id = 1;
  app.name = "app-one";
  QueryTemplate tmpl;
  tmpl.id = 3;
  tmpl.name = "scan";
  AccessComponent component;
  component.table = 2;
  component.table_pages = 1000;
  component.kind = AccessComponent::Kind::kSequentialScan;
  component.mean_pages = 16;
  tmpl.components.push_back(component);
  app.templates.push_back(tmpl);
  app.mix_weights.push_back(1.0);
  topo.apps.push_back(app);
  topo.replicas.push_back({0, 0, 8192, 17});
  topo.placements.push_back({1, {0}});

  std::string error;
  EXPECT_TRUE(writer.Open(path, info, topo, &error)) << error;

  std::mt19937_64 rng(seed);
  QueryTemplate* tmpl_ptr = &topo.apps[0].templates[0];
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>(i) * 0.1 +
                     static_cast<double>(rng() % 1000) * 1e-6;
    sim.ScheduleAt(t, [&writer, &rng, tmpl_ptr] {
      QueryInstance query;
      query.app = 1;
      query.tmpl = tmpl_ptr;
      query.client_id = rng() % 32;
      writer.OnArrival(query);
      std::vector<PageAccess> accesses;
      const size_t n = 1 + rng() % 40;
      for (size_t j = 0; j < n; ++j) {
        PageAccess a;
        a.page = rng() % 4 == 0 ? rng()
                                : MakePageId(2, rng() % 1000);
        a.kind = rng() % 2 == 0 ? AccessKind::kSequential
                                : AccessKind::kRandom;
        a.is_write = rng() % 5 == 0;
        accesses.push_back(a);
      }
      writer.OnExecution(0, MakeClassKey(1, 3), accesses);
    });
  }
  sim.RunToCompletion();

  std::vector<SelectiveRetuner::Action> actions(2);
  actions[0].time = 10;
  actions[0].kind = SelectiveRetuner::ActionKind::kQuotaEnforced;
  actions[0].app = 1;
  actions[0].description = "quota 512 pages";
  actions[1].time = 20;
  actions[1].kind = SelectiveRetuner::ActionKind::kClassRescheduled;
  actions[1].app = 1;
  actions[1].description = "rescheduled";
  std::vector<SelectiveRetuner::IntervalSample> samples(3);
  for (int i = 0; i < 3; ++i) {
    samples[i].time = 10.0 * (i + 1);
    SelectiveRetuner::AppSample as;
    as.app = 1;
    as.queries = 100 + i;
    as.avg_latency = 0.5 * i;
    as.p95_latency = 0.9 * i;
    as.throughput = 10.0 + i;
    as.sla_met = i != 1;
    as.servers_used = 1;
    samples[i].apps.push_back(as);
    samples[i].servers.push_back({0, 0.5, 0.25});
  }
  EXPECT_TRUE(writer.Finalize(actions, samples));
  return Slurp(path);
}

TEST(ReplayCodecTest, CaptureRoundTripsExactly) {
  const std::string path = TempPath("fglb_codec_capture_rt.bin");
  WriteSampleCapture(path, 5);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;

  EXPECT_EQ(capture.info.seed, 5u);
  EXPECT_EQ(capture.info.scenario, "codec-test");
  EXPECT_EQ(capture.info.fault_spec, "disk@10:server=0,factor=2,duration=5");
  EXPECT_DOUBLE_EQ(capture.info.mrc_sample_rate, 0.5);
  EXPECT_EQ(capture.info.max_migrations_per_interval, 2);
  ASSERT_EQ(capture.topology.servers.size(), 1u);
  EXPECT_EQ(capture.topology.servers[0].cores, 8);
  ASSERT_EQ(capture.topology.apps.size(), 1u);
  EXPECT_EQ(capture.topology.apps[0].name, "app-one");
  ASSERT_EQ(capture.topology.apps[0].templates.size(), 1u);
  EXPECT_EQ(capture.topology.apps[0].templates[0].components[0].kind,
            AccessComponent::Kind::kSequentialScan);
  ASSERT_EQ(capture.topology.replicas.size(), 1u);
  EXPECT_EQ(capture.topology.replicas[0].engine_seed, 17u);
  ASSERT_EQ(capture.topology.placements.size(), 1u);

  EXPECT_EQ(capture.arrivals.size(), 200u);
  EXPECT_EQ(capture.executions.size(), 200u);
  ASSERT_EQ(capture.actions.size(), 2u);
  EXPECT_EQ(capture.actions[1].description, "rescheduled");
  ASSERT_EQ(capture.samples.size(), 3u);
  EXPECT_FALSE(capture.samples[1].apps[0].sla_met);

  // Re-generate the identical stream and compare the decoded events
  // element-wise (times must be bit-exact through the delta chain).
  const std::string path2 = TempPath("fglb_codec_capture_rt2.bin");
  WriteSampleCapture(path2, 5);
  Capture capture2;
  ASSERT_TRUE(ReadCapture(path2, &capture2, &error)) << error;
  ASSERT_EQ(capture2.arrivals.size(), capture.arrivals.size());
  for (size_t i = 0; i < capture.arrivals.size(); ++i) {
    EXPECT_EQ(capture.arrivals[i].t, capture2.arrivals[i].t);
    EXPECT_EQ(capture.arrivals[i].client_id, capture2.arrivals[i].client_id);
  }
  ASSERT_EQ(capture2.accesses.size(), capture.accesses.size());
  ASSERT_EQ(capture2.executions.size(), capture.executions.size());
  std::vector<PageAccess> accesses, accesses2;
  for (size_t i = 0; i < capture.executions.size(); ++i) {
    capture.accesses.AppendTo(capture.executions[i], &accesses);
    capture2.accesses.AppendTo(capture2.executions[i], &accesses2);
  }
  ASSERT_EQ(accesses.size(), capture.accesses.size());
  ASSERT_EQ(accesses2.size(), accesses.size());
  for (size_t i = 0; i < accesses.size(); ++i) {
    EXPECT_EQ(accesses[i].page, accesses2[i].page);
    EXPECT_EQ(accesses[i].kind, accesses2[i].kind);
    EXPECT_EQ(accesses[i].is_write, accesses2[i].is_write);
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(ReplayCodecTest, CaptureCorruptionAlwaysDetected) {
  const std::string path = TempPath("fglb_codec_capture_fuzz.bin");
  const std::string clean = WriteSampleCapture(path, 9);
  ASSERT_FALSE(clean.empty());
  std::mt19937_64 rng(321);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = clean;
    const size_t pos = rng() % corrupted.size();
    const uint8_t xor_mask = static_cast<uint8_t>(1 + rng() % 255);
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ xor_mask);
    WriteBytes(path, corrupted);
    Capture capture;
    std::string error;
    EXPECT_FALSE(ReadCapture(path, &capture, &error))
        << "byte " << pos << " ^ " << int{xor_mask};
  }
  std::remove(path.c_str());
}

TEST(ReplayCodecTest, CaptureTruncationAndGarbageDetected) {
  const std::string path = TempPath("fglb_codec_capture_trunc.bin");
  const std::string clean = WriteSampleCapture(path, 13);
  std::mt19937_64 rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    WriteBytes(path, clean.substr(0, rng() % clean.size()));
    Capture capture;
    std::string error;
    EXPECT_FALSE(ReadCapture(path, &capture, &error));
  }
  WriteBytes(path, clean + "tail");
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadCapture(path, &capture, &error));
  EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
  std::remove(path.c_str());
}

// --- malformed access strings, re-sealed so only the decoder sees them ---

// One block of an FGLBCAP1 file.
struct Block {
  uint8_t type = 0;
  std::string payload;
};

constexpr uint8_t kEventsBlock = 3;

// Splits a well-formed capture file into its blocks.
std::vector<Block> SplitBlocks(const std::string& file) {
  std::vector<Block> blocks;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(file.data());
  const uint8_t* limit = base + file.size();
  size_t pos = 8;  // magic
  while (pos < file.size()) {
    Block block;
    block.type = base[pos];
    uint32_t len = 0;
    EXPECT_TRUE(GetFixed32(base + pos + 1, limit, &len));
    block.payload = file.substr(pos + 9, len);
    pos += 9 + len;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

// Joins blocks back into a file with every length and CRC recomputed,
// so a changed payload passes the checksum and reaches the decoder.
std::string SealBlocks(const std::vector<Block>& blocks) {
  std::string file = "FGLBCAP1";
  for (const Block& block : blocks) {
    file.push_back(static_cast<char>(block.type));
    PutFixed32(&file, static_cast<uint32_t>(block.payload.size()));
    PutFixed32(&file, Crc32(block.payload.data(), block.payload.size()));
    file += block.payload;
  }
  return file;
}

// An events payload holding one execution at t = 0 whose access count
// varint is `count`, followed by the raw access bytes `accesses`
// (flags byte + zigzag page-delta varint per access).
std::string OneExecutionEvents(uint64_t count, const std::string& accesses) {
  std::string payload;
  payload.push_back(2);         // execution tag
  PutVarint64(&payload, 0);     // time delta: t = 0.0
  PutVarint64(&payload, 0);     // replica
  PutVarint64(&payload, MakeClassKey(1, 1));
  PutVarint64(&payload, count);
  return payload + accesses;
}

// Writes a capture whose only events block is `events` and reads it.
// The file is named after the running test: ctest runs the callers as
// concurrent processes, which must not share one path.
bool ReadWithEvents(const std::string& events, Capture* capture,
                    std::string* error) {
  const std::string name =
      std::string("fglb_codec_hand_built_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
  const std::string path = TempPath(name.c_str());
  std::vector<Block> blocks =
      SplitBlocks(WriteRandomCapture(path, RandomExecutions(3, 1)));
  bool replaced = false;
  for (Block& block : blocks) {
    if (block.type == kEventsBlock) {
      block.payload = events;
      replaced = true;
    }
  }
  EXPECT_TRUE(replaced);
  WriteBytes(path, SealBlocks(blocks));
  const bool ok = ReadCapture(path, capture, error);
  std::remove(path.c_str());
  return ok;
}

TEST(ReplayCodecTest, HandBuiltEventsBlockDecodes) {
  // The well-formed baseline of the rejection cases below: pages 1
  // (random read) then 3 (sequential write).
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadWithEvents(
      OneExecutionEvents(2, std::string("\x00\x02\x03\x04", 4)), &capture,
      &error))
      << error;
  ASSERT_EQ(capture.executions.size(), 1u);
  EXPECT_EQ(capture.accesses.size(), 2u);
  std::vector<PageAccess> accesses;
  capture.accesses.AppendTo(capture.executions[0], &accesses);
  ASSERT_EQ(accesses.size(), 2u);
  EXPECT_EQ(accesses[0].page, 1u);
  EXPECT_EQ(accesses[0].kind, AccessKind::kRandom);
  EXPECT_FALSE(accesses[0].is_write);
  EXPECT_EQ(accesses[1].page, 3u);
  EXPECT_EQ(accesses[1].kind, AccessKind::kSequential);
  EXPECT_TRUE(accesses[1].is_write);
}

TEST(ReplayCodecTest, ReadCaptureRejectsAccessFlagsAboveThree) {
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadWithEvents(
      OneExecutionEvents(1, std::string("\x04\x02", 2)), &capture, &error));
  EXPECT_NE(error.find("bad events block"), std::string::npos) << error;
}

TEST(ReplayCodecTest, ReadCaptureRejectsAccessVarintCutAtBlockEnd) {
  Capture capture;
  std::string error;
  // The second access's page delta ends on a continuation byte.
  EXPECT_FALSE(ReadWithEvents(
      OneExecutionEvents(2, std::string("\x00\x02\x00\x80", 4)), &capture,
      &error));
  EXPECT_NE(error.find("bad events block"), std::string::npos) << error;
}

TEST(ReplayCodecTest, ReadCaptureRejectsAccessCountBeyondBlock) {
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadWithEvents(
      OneExecutionEvents(1000, std::string("\x00\x02", 2)), &capture,
      &error));
  EXPECT_NE(error.find("bad events block"), std::string::npos) << error;
}

TEST(ReplayCodecTest, ReadCaptureRejectsOverflowingAccessVarint) {
  Capture capture;
  std::string error;
  EXPECT_FALSE(ReadWithEvents(
      OneExecutionEvents(1, std::string(1, '\x00') + std::string(9, '\xFF') +
                                '\x7F'),
      &capture, &error));
  EXPECT_NE(error.find("bad events block"), std::string::npos) << error;
}

TEST(ReplayCodecTest, ResealedEventsMutationRejectedOrDecodesExactCounts) {
  // Mutations that keep every CRC valid: whatever ReadCapture accepts
  // must decode each execution to exactly its access_count accesses
  // (and, under ASan, without touching a byte outside the file).
  const std::string path = TempPath("fglb_codec_resealed_fuzz.bin");
  const std::vector<Block> clean =
      SplitBlocks(WriteRandomCapture(path, RandomExecutions(77, 80)));
  std::vector<size_t> events;
  for (size_t i = 0; i < clean.size(); ++i) {
    if (clean[i].type == kEventsBlock) events.push_back(i);
  }
  ASSERT_FALSE(events.empty());
  std::mt19937_64 rng(4242);
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Block> blocks = clean;
    std::string& payload = blocks[events[rng() % events.size()]].payload;
    ASSERT_FALSE(payload.empty());
    switch (rng() % 4) {
      case 0:  // flip bits in one to four bytes
        for (uint64_t k = 1 + rng() % 4; k > 0; --k) {
          payload[rng() % payload.size()] ^=
              static_cast<char>(1 + rng() % 255);
        }
        break;
      case 1:  // overwrite one byte with a varint-shaped value
        payload[rng() % payload.size()] =
            static_cast<char>(rng() % 2 == 0 ? 0x80 | rng() : rng() % 4);
        break;
      case 2:  // truncate
        payload.resize(rng() % payload.size());
        break;
      default:  // insert a byte
        payload.insert(payload.begin() +
                           static_cast<std::ptrdiff_t>(
                               rng() % (payload.size() + 1)),
                       static_cast<char>(rng()));
        break;
    }
    WriteBytes(path, SealBlocks(blocks));
    Capture capture;
    std::string error;
    if (!ReadCapture(path, &capture, &error)) continue;
    ++accepted;
    uint64_t total = 0;
    std::vector<PageAccess> accesses;
    for (const CaptureExecution& exec : capture.executions) {
      accesses.clear();
      capture.accesses.AppendTo(exec, &accesses);
      ASSERT_EQ(accesses.size(), exec.access_count) << "trial " << trial;
      total += accesses.size();
    }
    EXPECT_EQ(total, capture.accesses.size()) << "trial " << trial;
  }
  // Both outcomes must actually occur, or the test checks nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 400);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

// Property/fuzz coverage of the byte-level codec under the FGLBCAP1
// capture format: random streams must round-trip exactly, and random
// byte corruption must be detected by the checksums — never a crash,
// never silently wrong data.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/varint.h"
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
    for (size_t i = 0; i < executions.size(); ++i) {
      const CaptureExecution& exec = capture.executions[i];
      ASSERT_EQ(exec.key, executions[i].key);
      ASSERT_EQ(exec.access_count, executions[i].accesses.size());
      for (uint32_t j = 0; j < exec.access_count; ++j) {
        const PageAccess& got = capture.accesses[exec.access_begin + j];
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
  for (size_t i = 0; i < capture.accesses.size(); ++i) {
    EXPECT_EQ(capture.accesses[i].page, capture2.accesses[i].page);
    EXPECT_EQ(capture.accesses[i].kind, capture2.accesses[i].kind);
    EXPECT_EQ(capture.accesses[i].is_write, capture2.accesses[i].is_write);
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

}  // namespace
}  // namespace fglb

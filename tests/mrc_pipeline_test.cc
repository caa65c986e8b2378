// Tests for the sampled, copy-free MRC analysis pipeline: sampled-vs-
// exact MRC parameter agreement, the Fenwick scratch/presize paths, and
// determinism of DiagnoseMemory across independent analyzers.

#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/log_analyzer.h"
#include "engine/database_engine.h"
#include "mrc/miss_ratio_curve.h"
#include "mrc/mrc_tracker.h"
#include "mrc/sampled_mattson_stack.h"
#include "reference/list_mattson_stack.h"
#include "storage/disk_model.h"

namespace fglb {
namespace {

std::vector<PageId> MakeZipfTrace(uint64_t pages, double theta, size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(pages, theta);
  std::vector<PageId> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.push_back(MakePageId(1, ScrambleToDomain(zipf.Sample(rng), pages)));
  }
  return trace;
}

// Sequential scan of `region` pages, repeated.
std::vector<PageId> MakeScanTrace(uint64_t region, int repetitions) {
  std::vector<PageId> trace;
  trace.reserve(region * repetitions);
  for (int r = 0; r < repetitions; ++r) {
    for (uint64_t i = 0; i < region; ++i) trace.push_back(MakePageId(2, i));
  }
  return trace;
}

// A loop alternating between a hot set and periodic wide sweeps.
std::vector<PageId> MakeLoopingTrace(uint64_t hot, uint64_t wide,
                                     size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(n);
  uint64_t sweep_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      trace.push_back(MakePageId(3, hot + (sweep_pos++ % wide)));
    } else {
      trace.push_back(MakePageId(3, rng.NextUint64(hot)));
    }
  }
  return trace;
}

// --- SampledMattsonStack ---

TEST(SampledMattsonStackTest, FullRateMatchesExactFenwick) {
  const auto trace = MakeZipfTrace(500, 0.8, 20000, 7);
  SampledMattsonStack sampled(1.0);
  FenwickMattsonStack exact;
  for (PageId p : trace) {
    ASSERT_EQ(sampled.Access(p), exact.Access(p));
  }
  EXPECT_EQ(sampled.hit_counts(), exact.hit_counts());
  EXPECT_EQ(sampled.cold_misses(), exact.cold_misses());
  EXPECT_EQ(sampled.total_accesses(), exact.total_accesses());
  EXPECT_EQ(sampled.scale(), 1u);
}

TEST(SampledMattsonStackTest, ReplaysOnlyTheSample) {
  const auto trace = MakeZipfTrace(4000, 0.6, 50000, 11);
  SampledMattsonStack sampled(1.0 / 8);
  for (PageId p : trace) sampled.Access(p);
  EXPECT_EQ(sampled.scale(), 8u);
  EXPECT_EQ(sampled.total_accesses(), trace.size());
  // The sampled share is ~1/8 of references (hash-dependent; generous
  // envelope so the test pins the cost saving, not the exact hash).
  EXPECT_LT(sampled.sampled_accesses(), trace.size() / 4);
  EXPECT_GT(sampled.sampled_accesses(), trace.size() / 32);
}

TEST(SampledMattsonStackTest, ResetMatchesFreshInstance) {
  const auto first = MakeZipfTrace(300, 0.9, 10000, 13);
  const auto second = MakeZipfTrace(700, 0.5, 10000, 17);
  SampledMattsonStack reused(1.0 / 4);
  for (PageId p : first) reused.Access(p);
  reused.Reset();
  for (PageId p : second) reused.Access(p);
  SampledMattsonStack fresh(1.0 / 4);
  for (PageId p : second) fresh.Access(p);
  EXPECT_EQ(reused.hit_counts(), fresh.hit_counts());
  EXPECT_EQ(reused.cold_misses(), fresh.cold_misses());
  EXPECT_EQ(reused.total_accesses(), fresh.total_accesses());
}

// Accuracy bound: MRC parameters derived from a 1/8-sampled replay
// agree with the exact list-oracle parameters within a tolerance much
// tighter than MrcConfig::significant_change_fraction (0.5), so
// sampling cannot flip a diagnosis verdict on these shapes.
// The trace maker is wrapped with a name so that the parameter prints
// (and the discovered ctest name reads) the same in every run; a bare
// function pointer prints its load address, which moves with ASLR.
struct NamedTrace {
  const char* name;
  std::vector<PageId> (*make)();
};

void PrintTo(const NamedTrace& param, std::ostream* os) { *os << param.name; }

class SampledAccuracyTest : public ::testing::TestWithParam<NamedTrace> {};

std::vector<PageId> SkewedTrace() {
  return MakeZipfTrace(4000, 0.9, 80000, 21);
}
std::vector<PageId> SequentialTrace() { return MakeScanTrace(3000, 25); }
std::vector<PageId> LoopingTrace() {
  return MakeLoopingTrace(2000, 4000, 80000, 29);
}

TEST_P(SampledAccuracyTest, ParametersWithinTolerance) {
  const std::vector<PageId> trace = GetParam().make();
  MrcConfig config;
  config.max_server_pages = 16384;

  reference::ListMattsonStack oracle;
  const MissRatioCurve exact_curve = MissRatioCurve::Replay(
      SpanPair<PageId>(std::span<const PageId>(trace)), oracle);
  const MrcParameters exact = exact_curve.ComputeParameters(config);

  MrcConfig sampled_config = config;
  sampled_config.sample_rate = 1.0 / 8;
  const MissRatioCurve sampled_curve = MissRatioCurve::FromTrace(
      SpanPair<PageId>(std::span<const PageId>(trace)), sampled_config);
  const MrcParameters sampled = sampled_curve.ComputeParameters(config);

  const auto within = [](uint64_t exact_v, uint64_t sampled_v,
                         double tolerance) {
    const double e = static_cast<double>(exact_v);
    const double s = static_cast<double>(sampled_v);
    return std::abs(s - e) <= tolerance * e + 64.0;
  };
  EXPECT_TRUE(within(exact.total_memory_pages, sampled.total_memory_pages,
                     0.15))
      << "total: exact " << exact.total_memory_pages << " sampled "
      << sampled.total_memory_pages;
  EXPECT_TRUE(within(exact.acceptable_memory_pages,
                     sampled.acceptable_memory_pages, 0.15))
      << "acceptable: exact " << exact.acceptable_memory_pages << " sampled "
      << sampled.acceptable_memory_pages;
  EXPECT_NEAR(sampled.ideal_miss_ratio, exact.ideal_miss_ratio, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, SampledAccuracyTest,
    ::testing::Values(NamedTrace{"skewed", &SkewedTrace},
                      NamedTrace{"sequential", &SequentialTrace},
                      NamedTrace{"looping", &LoopingTrace}));

// --- Fenwick presize / scratch reuse ---

TEST(FenwickPresizeTest, PresizedMatchesGrownAndNeverRebuilds) {
  const auto trace = MakeZipfTrace(20000, 0.2, 30000, 31);
  FenwickMattsonStack grown;
  FenwickMattsonStack presized(trace.size());
  for (PageId p : trace) {
    ASSERT_EQ(grown.Access(p), presized.Access(p));
  }
  EXPECT_EQ(grown.hit_counts(), presized.hit_counts());
  EXPECT_GT(grown.capacity_rebuilds(), 0u);
  EXPECT_EQ(presized.capacity_rebuilds(), 0u);
}

TEST(FenwickPresizeTest, ResetReusesCapacity) {
  const auto trace = MakeZipfTrace(5000, 0.4, 20000, 37);
  FenwickMattsonStack stack(trace.size());
  for (PageId p : trace) stack.Access(p);
  stack.Reset();
  EXPECT_EQ(stack.total_accesses(), 0u);
  EXPECT_EQ(stack.distinct_pages(), 0u);
  FenwickMattsonStack fresh(trace.size());
  for (PageId p : trace) {
    ASSERT_EQ(stack.Access(p), fresh.Access(p));
  }
  EXPECT_EQ(stack.capacity_rebuilds(), 0u);
}

// --- Copy-free tracker input ---

TEST(MrcTrackerSpansTest, TwoSpanInputMatchesContiguous) {
  const auto trace = MakeZipfTrace(800, 0.8, 24000, 41);
  MrcConfig config;
  MrcTracker contiguous(config);
  MrcTracker split(config);
  contiguous.SetStableFromTrace(std::span<const PageId>(trace));
  // The same logical trace presented as a wrapped ring would be.
  const size_t cut = trace.size() / 3 + 7;
  const SpanPair<PageId> view(
      std::span<const PageId>(trace.data(), cut),
      std::span<const PageId>(trace.data() + cut, trace.size() - cut));
  split.SetStableFromTrace(view);
  ASSERT_TRUE(contiguous.has_stable());
  ASSERT_TRUE(split.has_stable());
  EXPECT_EQ(contiguous.stable_params().total_memory_pages,
            split.stable_params().total_memory_pages);
  EXPECT_EQ(contiguous.stable_params().acceptable_memory_pages,
            split.stable_params().acceptable_memory_pages);

  const auto longer = MakeZipfTrace(800, 0.8, 30000, 43);
  const auto rec_a = contiguous.Recompute(std::span<const PageId>(longer));
  const size_t cut2 = longer.size() / 2 + 11;
  const auto rec_b = split.Recompute(SpanPair<PageId>(
      std::span<const PageId>(longer.data(), cut2),
      std::span<const PageId>(longer.data() + cut2, longer.size() - cut2)));
  EXPECT_EQ(rec_a.params.total_memory_pages, rec_b.params.total_memory_pages);
  EXPECT_EQ(rec_a.params.acceptable_memory_pages,
            rec_b.params.acceptable_memory_pages);
  EXPECT_EQ(rec_a.suspect, rec_b.suspect);
}

// --- DiagnoseMemory determinism ---

// Named for the worker-pool fan-out diagnosis once had; it is serial
// now. Two analyzers over identically filled engines must agree exactly,
// and the profiles come back in candidate order.
class ParallelDiagnosisTest : public ::testing::Test {
 protected:
  static constexpr int kClasses = 6;
  static constexpr size_t kWindow = 6000;

  void FillEngine(DatabaseEngine* engine) {
    for (int c = 0; c < kClasses; ++c) {
      const ClassKey key = MakeClassKey(1, static_cast<uint32_t>(c + 1));
      Rng rng(500 + c);
      ZipfGenerator zipf(600 + 100 * c, 0.8);
      for (size_t i = 0; i < kWindow; ++i) {
        engine->stats().RecordPageAccess(
            key, MakePageId(static_cast<uint32_t>(c + 1),
                            ScrambleToDomain(zipf.Sample(rng),
                                             600 + 100 * c)));
      }
    }
  }

  std::set<ClassKey> Candidates() const {
    std::set<ClassKey> keys;
    for (int c = 0; c < kClasses; ++c) {
      keys.insert(MakeClassKey(1, static_cast<uint32_t>(c + 1)));
    }
    return keys;
  }

  static void ExpectIdentical(const LogAnalyzer::MemoryDiagnosis& a,
                              const LogAnalyzer::MemoryDiagnosis& b) {
    const auto same_profiles =
        [](const std::vector<ClassMemoryProfile>& x,
           const std::vector<ClassMemoryProfile>& y) {
          ASSERT_EQ(x.size(), y.size());
          for (size_t i = 0; i < x.size(); ++i) {
            EXPECT_EQ(x[i].key, y[i].key);
            EXPECT_EQ(x[i].params.total_memory_pages,
                      y[i].params.total_memory_pages);
            EXPECT_EQ(x[i].params.acceptable_memory_pages,
                      y[i].params.acceptable_memory_pages);
            EXPECT_EQ(x[i].params.ideal_miss_ratio,
                      y[i].params.ideal_miss_ratio);
            EXPECT_EQ(x[i].params.acceptable_miss_ratio,
                      y[i].params.acceptable_miss_ratio);
          }
        };
    same_profiles(a.suspects, b.suspects);
    same_profiles(a.cleared, b.cleared);
    EXPECT_EQ(a.insufficient_data, b.insufficient_data);
  }

  static void ExpectCandidateOrder(
      const std::vector<ClassMemoryProfile>& profiles) {
    for (size_t i = 1; i < profiles.size(); ++i) {
      EXPECT_LT(profiles[i - 1].key, profiles[i].key);
    }
  }

  void RunDeterminismCheck(double sample_rate) {
    DiskModel disk;
    DatabaseEngine::Options options;
    options.access_window_capacity = kWindow;
    DatabaseEngine first_engine("first", options, &disk);
    DatabaseEngine second_engine("second", options, &disk);
    FillEngine(&first_engine);
    FillEngine(&second_engine);

    MrcConfig config;
    config.sample_rate = sample_rate;
    LogAnalyzer first(&first_engine, OutlierConfig{}, config);
    LogAnalyzer second(&second_engine, OutlierConfig{}, config);

    // First pass: no baselines, every class is a fresh suspect.
    const auto first_fresh = first.DiagnoseMemory(Candidates());
    const auto second_fresh = second.DiagnoseMemory(Candidates());
    EXPECT_EQ(first_fresh.suspects.size(), static_cast<size_t>(kClasses));
    ExpectCandidateOrder(first_fresh.suspects);
    ExpectIdentical(first_fresh, second_fresh);

    // Adopt baselines, rediagnose: identical cleared verdicts too.
    for (const auto& p : first_fresh.suspects) {
      first.AdoptRecomputation(p.key);
    }
    for (const auto& p : second_fresh.suspects) {
      second.AdoptRecomputation(p.key);
    }
    const auto first_again = first.DiagnoseMemory(Candidates());
    const auto second_again = second.DiagnoseMemory(Candidates());
    EXPECT_EQ(first_again.cleared.size(), static_cast<size_t>(kClasses));
    ExpectCandidateOrder(first_again.cleared);
    ExpectIdentical(first_again, second_again);
  }
};

TEST_F(ParallelDiagnosisTest, ExactReplayIsDeterministic) {
  RunDeterminismCheck(1.0);
}

TEST_F(ParallelDiagnosisTest, SampledReplayIsDeterministic) {
  RunDeterminismCheck(1.0 / 8);
}

TEST_F(ParallelDiagnosisTest, InsufficientDataStillReported) {
  DiskModel disk;
  DatabaseEngine::Options options;
  options.access_window_capacity = kWindow;
  DatabaseEngine engine("tiny", options, &disk);
  const ClassKey thin = MakeClassKey(1, 99);
  for (int i = 0; i < 10; ++i) {
    engine.stats().RecordPageAccess(thin, MakePageId(9, i));
  }
  LogAnalyzer analyzer(&engine, OutlierConfig{}, MrcConfig{});
  const auto diagnosis = analyzer.DiagnoseMemory({thin});
  EXPECT_TRUE(diagnosis.suspects.empty());
  EXPECT_TRUE(diagnosis.cleared.empty());
  EXPECT_EQ(diagnosis.insufficient_data, std::vector<ClassKey>{thin});
}

}  // namespace
}  // namespace fglb

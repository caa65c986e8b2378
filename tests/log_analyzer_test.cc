#include "core/log_analyzer.h"

#include <gtest/gtest.h>

#include "mrc/opt_oracle.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

class LogAnalyzerTest : public ::testing::Test {
 protected:
  LogAnalyzerTest() : app_(MakeTpcw()) {
    DatabaseEngine::Options options;
    options.buffer_pool_pages = 4096;
    options.access_window_capacity = 20000;
    options.seed = 3;
    engine_ = std::make_unique<DatabaseEngine>("e", options, &disk_);
    MrcConfig mrc;
    mrc.max_server_pages = 8192;
    analyzer_ = std::make_unique<LogAnalyzer>(engine_.get(), OutlierConfig{},
                                              mrc);
  }

  // Executes `n` instances of `cls`, recording completions with a
  // nominal latency.
  void RunQueries(QueryClassId cls, int n, double latency = 0.1) {
    QueryInstance q;
    q.app = app_.id;
    q.tmpl = app_.FindTemplate(cls);
    for (int i = 0; i < n; ++i) {
      const ExecutionCounters c = engine_->Execute(q);
      engine_->RecordCompletion(q.class_key(), latency, c);
    }
  }

  std::map<ClassKey, MetricVector> Snapshot() {
    return engine_->stats().EndInterval(10.0);
  }

  DiskModel disk_;
  ApplicationSpec app_;
  std::unique_ptr<DatabaseEngine> engine_;
  std::unique_ptr<LogAnalyzer> analyzer_;
};

TEST_F(LogAnalyzerTest, StableIntervalRecordsSignatures) {
  RunQueries(kTpcwHome, 50);
  const auto snap = Snapshot();
  analyzer_->RecordStableInterval(app_.id, snap, 10.0);
  const ClassKey key = MakeClassKey(app_.id, kTpcwHome);
  ASSERT_NE(analyzer_->stable_store().Find(key), nullptr);
}

TEST_F(LogAnalyzerTest, MrcBaselineSeededOnceWindowLargeEnough) {
  const ClassKey key = MakeClassKey(app_.id, kTpcwBestSeller);
  // A handful of queries: window below threshold, no baseline yet.
  RunQueries(kTpcwBestSeller, 3);
  analyzer_->RecordStableInterval(app_.id, Snapshot(), 10.0);
  EXPECT_EQ(analyzer_->StableParamsOf(key), nullptr);
  // Enough accesses accumulate a baseline.
  RunQueries(kTpcwBestSeller, 60);
  analyzer_->RecordStableInterval(app_.id, Snapshot(), 20.0);
  EXPECT_NE(analyzer_->StableParamsOf(key), nullptr);
}

TEST_F(LogAnalyzerTest, OtherAppsClassesIgnoredInDetection) {
  RunQueries(kTpcwHome, 50);
  auto snap = Snapshot();
  // Forge a foreign-app class into the snapshot.
  MetricVector v{};
  At(v, Metric::kBufferMisses) = 1e6;
  snap[MakeClassKey(77, 1)] = v;
  const OutlierReport report = analyzer_->DetectOutliers(app_.id, snap);
  for (const auto& o : report.outliers) {
    EXPECT_EQ(AppOf(o.key), app_.id);
  }
  for (ClassKey key : report.new_classes) {
    EXPECT_EQ(AppOf(key), app_.id);
  }
}

TEST_F(LogAnalyzerTest, DiagnoseInsufficientData) {
  RunQueries(kTpcwHome, 1);
  const auto diag =
      analyzer_->DiagnoseMemory({MakeClassKey(app_.id, kTpcwHome)});
  EXPECT_TRUE(diag.suspects.empty());
  ASSERT_EQ(diag.insufficient_data.size(), 1u);
}

TEST_F(LogAnalyzerTest, DiagnoseNeverSeenClassIsInsufficientData) {
  // An empty access window (class named by a stale candidate list,
  // e.g. after a stats dropout) must not reach the MRC replay.
  const ClassKey ghost = MakeClassKey(app_.id, 999);
  const auto diag = analyzer_->DiagnoseMemory({ghost});
  EXPECT_TRUE(diag.suspects.empty());
  ASSERT_EQ(diag.insufficient_data.size(), 1u);
  EXPECT_EQ(diag.insufficient_data[0], ghost);
}

TEST_F(LogAnalyzerTest, EmptySnapshotIsHarmless) {
  // A drop-all stats dropout yields an empty interval snapshot: stable
  // recording and outlier detection must both be clean no-ops.
  const std::map<ClassKey, MetricVector> empty;
  analyzer_->RecordStableInterval(app_.id, empty, 10.0);
  EXPECT_EQ(analyzer_->stable_store().size(), 0u);
  const OutlierReport report = analyzer_->DetectOutliers(app_.id, empty);
  EXPECT_TRUE(report.outliers.empty());
  EXPECT_TRUE(report.new_classes.empty());
}

TEST_F(LogAnalyzerTest, MixedSufficiencyDiagnosesOnlyTheWellSampled) {
  RunQueries(kTpcwBestSeller, 60);
  RunQueries(kTpcwHome, 1);  // single sample: window below threshold
  const ClassKey rich = MakeClassKey(app_.id, kTpcwBestSeller);
  const ClassKey poor = MakeClassKey(app_.id, kTpcwHome);
  const auto diag = analyzer_->DiagnoseMemory({rich, poor});
  ASSERT_EQ(diag.insufficient_data.size(), 1u);
  EXPECT_EQ(diag.insufficient_data[0], poor);
  ASSERT_EQ(diag.suspects.size(), 1u);
  EXPECT_EQ(diag.suspects[0].key, rich);
}

TEST_F(LogAnalyzerTest, DiagnoseNewClassIsSuspect) {
  RunQueries(kTpcwBestSeller, 60);
  const ClassKey key = MakeClassKey(app_.id, kTpcwBestSeller);
  // No stable baseline was ever recorded -> suspect by definition.
  const auto diag = analyzer_->DiagnoseMemory({key});
  ASSERT_EQ(diag.suspects.size(), 1u);
  EXPECT_EQ(diag.suspects[0].key, key);
  EXPECT_GT(diag.suspects[0].params.acceptable_memory_pages, 0u);
}

TEST_F(LogAnalyzerTest, DiagnoseUnchangedClassCleared) {
  RunQueries(kTpcwBestSeller, 60);
  analyzer_->RecordStableInterval(app_.id, Snapshot(), 10.0);
  const ClassKey key = MakeClassKey(app_.id, kTpcwBestSeller);
  ASSERT_NE(analyzer_->StableParamsOf(key), nullptr);
  // More of the same workload.
  RunQueries(kTpcwBestSeller, 60);
  const auto diag = analyzer_->DiagnoseMemory({key});
  EXPECT_TRUE(diag.suspects.empty());
  ASSERT_EQ(diag.cleared.size(), 1u);
}

TEST_F(LogAnalyzerTest, AdoptRecomputationUpdatesBaseline) {
  RunQueries(kTpcwBestSeller, 60);
  const ClassKey key = MakeClassKey(app_.id, kTpcwBestSeller);
  auto diag = analyzer_->DiagnoseMemory({key});
  ASSERT_EQ(diag.suspects.size(), 1u);
  analyzer_->AdoptRecomputation(key);
  EXPECT_NE(analyzer_->StableParamsOf(key), nullptr);
  // Re-diagnosis with the same pattern is now clear.
  diag = analyzer_->DiagnoseMemory({key});
  EXPECT_TRUE(diag.suspects.empty());
}

TEST_F(LogAnalyzerTest, StableProfilesExceptFilters) {
  RunQueries(kTpcwBestSeller, 60);
  RunQueries(kTpcwProductDetail, 200);
  analyzer_->RecordStableInterval(app_.id, Snapshot(), 10.0);
  const ClassKey bs = MakeClassKey(app_.id, kTpcwBestSeller);
  const auto all = analyzer_->StableProfilesExcept({});
  const auto without = analyzer_->StableProfilesExcept({bs});
  EXPECT_EQ(all.size(), without.size() + 1);
  for (const auto& p : without) EXPECT_NE(p.key, bs);
}

TEST(LogAnalyzerRegretTest, OptCoversTheSameAccessesAsTheLruCurve) {
  // Recompute trims a window longer than the baseline to the
  // baseline's length; regret must compare LRU and OPT over exactly
  // those references, not OPT over the whole (longer) window.
  DiskModel disk;
  const ApplicationSpec app = MakeTpcw();
  DatabaseEngine::Options options;
  options.buffer_pool_pages = 4096;
  options.access_window_capacity = 30000;
  options.seed = 3;
  DatabaseEngine engine("e", options, &disk);
  MrcConfig mrc;
  mrc.opt_regret = true;
  LogAnalyzer analyzer(&engine, OutlierConfig{}, mrc);
  QueryInstance q;
  q.app = app.id;
  q.tmpl = app.FindTemplate(kTpcwBestSeller);
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      engine.RecordCompletion(q.class_key(), 0.1, engine.Execute(q));
    }
  };
  const ClassKey key = q.class_key();
  while (engine.stats().AccessWindow(key).size() < 8000) run(1);
  analyzer.RecordStableInterval(app.id, engine.stats().EndInterval(10.0),
                                10.0);
  ASSERT_NE(analyzer.StableParamsOf(key), nullptr);
  run(600);

  const auto diag = analyzer.DiagnoseMemory({key});
  std::vector<ClassMemoryProfile> profiles = diag.suspects;
  profiles.insert(profiles.end(), diag.cleared.begin(), diag.cleared.end());
  ASSERT_EQ(profiles.size(), 1u);
  const ClassMemoryProfile& profile = profiles[0];
  ASSERT_NE(profile.curve, nullptr);
  const std::vector<PageId> window = engine.stats().AccessWindow(key);
  const size_t covered = profile.curve->total_accesses();
  ASSERT_LT(covered, window.size());  // the window really was trimmed
  const uint64_t quota = profile.params.acceptable_memory_pages;
  const double expected = RegretVsOpt(
      std::span<const PageId>(window).last(covered), *profile.curve, quota);
  EXPECT_DOUBLE_EQ(profile.regret_vs_opt, expected);
  EXPECT_NE(expected, RegretVsOpt(window, *profile.curve, quota));
}

}  // namespace
}  // namespace fglb

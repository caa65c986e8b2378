#include "core/log_analyzer.h"

#include <cassert>

#include "mrc/opt_oracle.h"

namespace fglb {

LogAnalyzer::LogAnalyzer(DatabaseEngine* engine, OutlierConfig outlier_config,
                         MrcConfig mrc_config, MetricsRegistry* metrics)
    : engine_(engine),
      detector_(outlier_config),
      mrc_config_(mrc_config),
      metrics_(metrics) {
  assert(engine_ != nullptr);
  if (metrics_ != nullptr) {
    outlier_us_ = metrics_->histogram("controller.diagnose.outlier_us");
    mrc_us_ = metrics_->histogram("controller.diagnose.mrc_us");
  }
}

MrcTracker& LogAnalyzer::TrackerFor(ClassKey key) {
  auto it = trackers_.find(key);
  if (it == trackers_.end()) {
    it = trackers_.emplace(key, std::make_unique<MrcTracker>(mrc_config_))
             .first;
  }
  return *it->second;
}

void LogAnalyzer::RecordStableInterval(
    AppId app, const std::map<ClassKey, MetricVector>& snapshot,
    SimTime now) {
  for (const auto& [key, vec] : snapshot) {
    if (AppOf(key) != app) continue;
    stable_store_.Update(key, vec, now);
    // First-time MRC baseline, computed "when a query class is first
    // scheduled on the system" — i.e. once enough of its accesses have
    // been observed during stable operation.
    MrcTracker& tracker = TrackerFor(key);
    if (!tracker.has_stable()) {
      const SpanPair<PageId> window = engine_->stats().AccessWindowSpans(key);
      if (window.size() >= kMinWindowForMrc) tracker.SetStableFromTrace(window);
    }
  }
}

OutlierReport LogAnalyzer::DetectOutliers(
    AppId app, const std::map<ClassKey, MetricVector>& snapshot,
    double fence_scale) const {
  const ScopedTimer timer(outlier_us_);
  std::map<ClassKey, MetricVector> app_only;
  for (const auto& [key, vec] : snapshot) {
    if (AppOf(key) == app) app_only.emplace(key, vec);
  }
  return detector_.Detect(app_only, stable_store_, fence_scale);
}

LogAnalyzer::MemoryDiagnosis LogAnalyzer::DiagnoseMemory(
    const std::set<ClassKey>& candidates) {
  const ScopedTimer timer(mrc_us_);
  MemoryDiagnosis diagnosis;
  for (ClassKey key : candidates) {
    const SpanPair<PageId> window = engine_->stats().AccessWindowSpans(key);
    if (window.size() < kMinWindowForMrc) {
      diagnosis.insufficient_data.push_back(key);
      continue;
    }
    MrcTracker::Recomputation rec = TrackerFor(key).Recompute(window);
    ClassMemoryProfile profile;
    profile.key = key;
    profile.params = rec.params;
    // Carry the curve itself: tiered planning reads the (dram, tier2)
    // split straight off the reuse-distance histogram.
    profile.curve = std::make_shared<MissRatioCurve>(rec.curve);
    if (mrc_config_.opt_regret) {
      // LRU-vs-Belady gap at the class's acceptable-memory point: how
      // much of the remaining miss ratio is replacement-policy regret
      // rather than genuine capacity need. O(window log window) — only
      // paid when the oracle is explicitly enabled. OPT replays exactly
      // the references the LRU curve covers (Recompute trims the window
      // to the baseline's length): over a longer trace OPT would
      // amortise cold misses the curve still pays.
      const std::vector<PageId> covered =
          window.Suffix(rec.curve.total_accesses()).ToVector();
      profile.regret_vs_opt = RegretVsOpt(covered, rec.curve,
                                          rec.params.acceptable_memory_pages);
    }
    if (rec.suspect) {
      diagnosis.suspects.push_back(profile);
    } else {
      diagnosis.cleared.push_back(profile);
    }
    last_recomputation_[key] = std::move(rec);
  }
  return diagnosis;
}

void LogAnalyzer::AdoptRecomputation(ClassKey key) {
  auto it = last_recomputation_.find(key);
  if (it == last_recomputation_.end()) return;
  TrackerFor(key).AdoptAsStable(it->second);
}

std::vector<ClassMemoryProfile> LogAnalyzer::StableProfilesExcept(
    const std::set<ClassKey>& excluded) const {
  std::vector<ClassMemoryProfile> profiles;
  for (const auto& [key, tracker] : trackers_) {
    if (excluded.contains(key)) continue;
    if (!tracker->has_stable()) continue;
    ClassMemoryProfile profile;
    profile.key = key;
    profile.params = tracker->stable_params();
    if (!tracker->stable_curve().empty()) {
      profile.curve =
          std::make_shared<MissRatioCurve>(tracker->stable_curve());
    }
    profiles.push_back(profile);
  }
  return profiles;
}

const MrcParameters* LogAnalyzer::StableParamsOf(ClassKey key) const {
  auto it = trackers_.find(key);
  if (it == trackers_.end() || !it->second->has_stable()) return nullptr;
  return &it->second->stable_params();
}

}  // namespace fglb

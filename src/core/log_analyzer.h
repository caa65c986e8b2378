#ifndef FGLB_CORE_LOG_ANALYZER_H_
#define FGLB_CORE_LOG_ANALYZER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/metrics_registry.h"
#include "core/outlier_detector.h"
#include "core/quota_planner.h"
#include "core/stable_state.h"
#include "engine/database_engine.h"
#include "mrc/mrc_tracker.h"

namespace fglb {

// One log analyzer per database engine (the paper's "one per database
// system running on their server"): owns the engine's stable-state
// signature store and per-class MRC trackers, runs outlier detection
// over interval snapshots, and performs the MRC-recomputation memory
// diagnosis for suspect classes.
class LogAnalyzer {
 public:
  LogAnalyzer(DatabaseEngine* engine, OutlierConfig outlier_config,
              MrcConfig mrc_config, MetricsRegistry* metrics = nullptr);
  LogAnalyzer(const LogAnalyzer&) = delete;
  LogAnalyzer& operator=(const LogAnalyzer&) = delete;

  // Minimum recent accesses before a class's MRC is considered
  // computable.
  static constexpr size_t kMinWindowForMrc = 4000;

  // Called for each application whose interval met its SLA: refreshes
  // the stable signatures of that app's classes (from `snapshot`,
  // which must contain only this engine's per-class vectors) and seeds
  // first-time MRC baselines from the access windows.
  void RecordStableInterval(AppId app,
                            const std::map<ClassKey, MetricVector>& snapshot,
                            SimTime now);

  // Outlier detection for one application's classes in this engine's
  // snapshot (classes of other apps are filtered out). `fence_scale`
  // widens the IQR fences when the snapshot's telemetry confidence has
  // decayed (see StatsChannel).
  OutlierReport DetectOutliers(AppId app,
                               const std::map<ClassKey, MetricVector>&
                                   snapshot,
                               double fence_scale = 1.0) const;

  struct MemoryDiagnosis {
    // Classes whose recomputed MRC shows a significantly higher memory
    // need — or that never had a baseline (newly scheduled): the
    // confirmed memory-interference suspects, with current parameters.
    std::vector<ClassMemoryProfile> suspects;
    // Candidates whose recomputation showed no change: not the cause.
    std::vector<ClassMemoryProfile> cleared;
    // Candidates with too little window data to recompute.
    std::vector<ClassKey> insufficient_data;
  };

  // Recomputes MRCs from the recent access windows for `candidates`,
  // one class at a time in candidate order; windows are consumed as
  // zero-copy ring snapshots.
  MemoryDiagnosis DiagnoseMemory(const std::set<ClassKey>& candidates);

  // Adopts the most recent recomputation of `key` as its new stable MRC
  // baseline (call after acting on the diagnosis so the accepted
  // environment change stops looking anomalous).
  void AdoptRecomputation(ClassKey key);

  // Stable memory profiles of every class known to this engine except
  // `excluded` — the "rest of the application queries scheduled on the
  // same physical server" side of the quota fit test.
  std::vector<ClassMemoryProfile> StableProfilesExcept(
      const std::set<ClassKey>& excluded) const;

  // Stable profile for one class, if its MRC baseline exists.
  const MrcParameters* StableParamsOf(ClassKey key) const;

  DatabaseEngine& engine() { return *engine_; }
  StableStateStore& stable_store() { return stable_store_; }
  const StableStateStore& stable_store() const { return stable_store_; }
  const MrcConfig& mrc_config() const { return mrc_config_; }

  // Checkpoint support (FGLBCKPT1): iterate the classes whose trackers
  // hold a stable MRC baseline, and reinstall one on restore. The
  // restored tracker re-derives its parameters from the curve, so
  // post-restore diagnoses are identical to the pre-crash ones.
  void ForEachStableTracker(
      const std::function<void(ClassKey, const MissRatioCurve&, size_t)>& fn)
      const {
    for (const auto& [key, tracker] : trackers_) {
      if (!tracker->has_stable()) continue;
      fn(key, tracker->stable_curve(), tracker->stable_trace_length());
    }
  }
  void RestoreStableTracker(ClassKey key, const MissRatioCurve& curve,
                            size_t trace_length) {
    TrackerFor(key).RestoreStable(curve, trace_length);
  }

 private:
  MrcTracker& TrackerFor(ClassKey key);

  DatabaseEngine* engine_;
  OutlierDetector detector_;
  MrcConfig mrc_config_;
  MetricsRegistry* metrics_ = nullptr;
  // Phase-duration histograms, bound iff metrics_ is set.
  LatencyHistogram* outlier_us_ = nullptr;
  LatencyHistogram* mrc_us_ = nullptr;
  StableStateStore stable_store_;
  std::map<ClassKey, std::unique_ptr<MrcTracker>> trackers_;
  std::map<ClassKey, MrcTracker::Recomputation> last_recomputation_;
};

}  // namespace fglb

#endif  // FGLB_CORE_LOG_ANALYZER_H_

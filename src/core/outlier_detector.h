#ifndef FGLB_CORE_OUTLIER_DETECTOR_H_
#define FGLB_CORE_OUTLIER_DETECTOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/stable_state.h"
#include "engine/metrics.h"
#include "workload/query_class.h"

namespace fglb {

// Tunables of the paper's §3.3.1 outlier detection.
struct OutlierConfig {
  // Inner fence multiplier: [Q1 - k*IQR, Q3 + k*IQR] -> mild outlier.
  double mild_fence = 1.5;
  // Outer fence multiplier -> extreme outlier.
  double extreme_fence = 3.0;
  // Weight each current/stable ratio by the class's share of the
  // metric (normalized to the least value across classes). Disabling
  // this is the A1 ablation.
  bool use_weights = true;
  // Minimum classes with signatures needed for meaningful quartiles.
  size_t min_classes = 4;
  // Ratios are capped here when the stable value is ~0 (new behaviour
  // appearing from nothing would otherwise divide by zero).
  double ratio_cap = 100.0;
};

enum class OutlierDegree { kNone = 0, kMild = 1, kExtreme = 2 };

// One outlier metric impact value (§3.3.1): a (class, metric) pair
// whose weighted current/stable ratio fell outside an IQR fence.
struct MetricOutlier {
  ClassKey key = 0;
  Metric metric = Metric::kLatency;
  double ratio = 0;   // current / stable
  double impact = 0;  // ratio * weight
  OutlierDegree degree = OutlierDegree::kNone;
  bool high_side = true;  // above the upper fence (vs below the lower)

  std::string ToString() const;
};

// The IQR fences actually applied for one metric — kept so decision
// traces can show WHY a class was (or was not) classified an outlier.
struct FenceSummary {
  Metric metric = Metric::kLatency;
  double q1 = 0;
  double q3 = 0;
  double iqr = 0;
  double inner_lo = 0;
  double inner_hi = 0;
  double outer_lo = 0;
  double outer_hi = 0;
};

// Result of one detection pass over an application's classes on one
// engine.
struct OutlierReport {
  std::vector<MetricOutlier> outliers;
  // Classes seen this interval that have no stable signature yet
  // (newly scheduled query classes; handled by the MRC step).
  std::vector<ClassKey> new_classes;
  // Raw impact values per metric per class, for inspection/plots.
  std::map<Metric, std::map<ClassKey, double>> impacts;
  // Raw current/stable ratios, the quantity Fig. 4 plots.
  std::map<Metric, std::map<ClassKey, double>> ratios;
  // Fences per metric that had enough classes for quartiles.
  std::vector<FenceSummary> fences;

  // Distinct classes with at least one outlier metric ("outlier query
  // contexts").
  std::set<ClassKey> OutlierContexts() const;

  // Outlier contexts restricted to memory-related counters and the
  // high side — the §3.3.2 "problem query class" candidates.
  std::set<ClassKey> MemoryProblemContexts() const;

  bool HasOutliers() const { return !outliers.empty(); }
};

// Classic IQR outlier detection over weighted metric-impact values,
// applied per metric across the query classes of one application on
// one server.
class OutlierDetector {
 public:
  explicit OutlierDetector(OutlierConfig config = {}) : config_(config) {}

  // `current` holds this interval's per-class metric vectors for one
  // application's classes on one engine; `stable` the engine's
  // signature store. Classes lacking signatures are reported in
  // `new_classes` and excluded from fencing. `fence_scale` multiplies
  // both IQR fence multipliers (>= 1): the stale-telemetry guard
  // widens fences when the stats feed's confidence has decayed, so a
  // possibly-stale snapshot must deviate harder to count as an
  // outlier.
  OutlierReport Detect(const std::map<ClassKey, MetricVector>& current,
                       const StableStateStore& stable,
                       double fence_scale = 1.0) const;

  const OutlierConfig& config() const { return config_; }

 private:
  OutlierConfig config_;
};

}  // namespace fglb

#endif  // FGLB_CORE_OUTLIER_DETECTOR_H_

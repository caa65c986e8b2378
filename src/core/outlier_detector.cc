#include "core/outlier_detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/stats.h"

namespace fglb {

namespace {

constexpr double kEps = 1e-9;

}  // namespace

std::string MetricOutlier::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "app=%u class=%u metric=%s ratio=%.3g impact=%.3g %s %s",
                AppOf(key), ClassOf(key), MetricName(metric), ratio, impact,
                degree == OutlierDegree::kExtreme ? "extreme" : "mild",
                high_side ? "high" : "low");
  return buf;
}

std::set<ClassKey> OutlierReport::OutlierContexts() const {
  std::set<ClassKey> contexts;
  for (const auto& o : outliers) contexts.insert(o.key);
  return contexts;
}

std::set<ClassKey> OutlierReport::MemoryProblemContexts() const {
  std::set<ClassKey> contexts;
  for (const auto& o : outliers) {
    if (IsMemoryMetric(o.metric) && o.high_side) contexts.insert(o.key);
  }
  return contexts;
}

OutlierReport OutlierDetector::Detect(
    const std::map<ClassKey, MetricVector>& current,
    const StableStateStore& stable, double fence_scale) const {
  OutlierReport report;
  const double mild_fence = config_.mild_fence * std::max(fence_scale, 1.0);
  const double extreme_fence =
      config_.extreme_fence * std::max(fence_scale, 1.0);

  // Partition classes into those with a baseline and new ones.
  std::vector<ClassKey> with_baseline;
  for (const auto& [key, vec] : current) {
    if (stable.Find(key) != nullptr) {
      with_baseline.push_back(key);
    } else {
      report.new_classes.push_back(key);
    }
  }

  for (Metric metric : kAllMetrics) {
    // 1. current/stable ratios.
    double min_positive_current = std::numeric_limits<double>::infinity();
    for (ClassKey key : with_baseline) {
      const double cur = At(current.at(key), metric);
      const double stb = At(stable.Find(key)->averages, metric);
      double ratio;
      if (stb > kEps) {
        ratio = std::min(cur / stb, config_.ratio_cap);
      } else {
        ratio = cur > kEps ? config_.ratio_cap : 1.0;
      }
      report.ratios[metric][key] = ratio;
      if (cur > kEps) min_positive_current = std::min(min_positive_current,
                                                      cur);
    }

    // 2. weighted impacts: the weight is the class's metric value
    // normalized to the least value across classes for this metric, so
    // heavyweight classes surface even with moderate deviations.
    std::vector<double> impacts;
    std::vector<ClassKey> impact_keys;
    for (ClassKey key : with_baseline) {
      const double cur = At(current.at(key), metric);
      double weight = 1.0;
      if (config_.use_weights) {
        weight = (cur > kEps && std::isfinite(min_positive_current))
                     ? cur / min_positive_current
                     : 0.0;
      }
      const double impact = report.ratios[metric][key] * weight;
      report.impacts[metric][key] = impact;
      impacts.push_back(impact);
      impact_keys.push_back(key);
    }

    // 3. IQR fencing across the application's classes.
    if (impacts.size() < config_.min_classes) continue;
    const QuartileSummary q = Quartiles(impacts);
    const double inner_lo = q.q1 - mild_fence * q.iqr;
    const double inner_hi = q.q3 + mild_fence * q.iqr;
    const double outer_lo = q.q1 - extreme_fence * q.iqr;
    const double outer_hi = q.q3 + extreme_fence * q.iqr;
    report.fences.push_back(FenceSummary{metric, q.q1, q.q3, q.iqr, inner_lo,
                                         inner_hi, outer_lo, outer_hi});
    for (size_t i = 0; i < impacts.size(); ++i) {
      const double x = impacts[i];
      OutlierDegree degree = OutlierDegree::kNone;
      bool high_side = false;
      if (x > outer_hi) {
        degree = OutlierDegree::kExtreme;
        high_side = true;
      } else if (x > inner_hi) {
        degree = OutlierDegree::kMild;
        high_side = true;
      } else if (x < outer_lo) {
        degree = OutlierDegree::kExtreme;
      } else if (x < inner_lo) {
        degree = OutlierDegree::kMild;
      }
      if (degree == OutlierDegree::kNone) continue;
      MetricOutlier outlier;
      outlier.key = impact_keys[i];
      outlier.metric = metric;
      outlier.ratio = report.ratios[metric][impact_keys[i]];
      outlier.impact = x;
      outlier.degree = degree;
      outlier.high_side = high_side;
      report.outliers.push_back(outlier);
    }
  }
  return report;
}

}  // namespace fglb

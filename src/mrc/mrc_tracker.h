#ifndef FGLB_MRC_MRC_TRACKER_H_
#define FGLB_MRC_MRC_TRACKER_H_

#include <memory>
#include <optional>
#include <span>

#include "common/span_pair.h"
#include "mrc/miss_ratio_curve.h"
#include "storage/page.h"

namespace fglb {

// Per-query-class MRC state. The paper computes a class's MRC when the
// class is first scheduled, stores its parameters in the stable-state
// record, and recomputes from the recent page-access window only when
// the class shows outliers in memory counters. This class holds that
// lifecycle: a stable baseline plus on-demand recomputation and
// comparison.
//
// Recomputations replay through a per-tracker scratch Mattson stack
// (created once, Reset() between uses), so the hot diagnosis path
// allocates no fresh stack per call; with config.sample_rate < 1 the
// scratch is a hash-sampled stack and replay cost drops ~rate-fold.
// The scratch makes concurrent Recompute calls on the *same* tracker
// unsafe; distinct trackers are independent, which is exactly the
// shape of the parallel per-class diagnosis fan-out.
class MrcTracker {
 public:
  explicit MrcTracker(MrcConfig config) : config_(config) {}

  // Computes the curve from `trace` and installs it as the stable
  // baseline (first scheduling, or after a stable interval re-anchors).
  void SetStableFromTrace(SpanPair<PageId> trace);
  void SetStableFromTrace(std::span<const PageId> trace) {
    SetStableFromTrace(SpanPair<PageId>(trace));
  }

  bool has_stable() const { return stable_.has_value(); }
  const MrcParameters& stable_params() const { return *stable_; }
  const MissRatioCurve& stable_curve() const { return stable_curve_; }

  struct Recomputation {
    MissRatioCurve curve;
    MrcParameters params;
    // True when the class had no baseline (newly scheduled) or the new
    // parameters show a significantly higher memory need — the paper's
    // criterion for keeping the class a memory-interference suspect.
    bool suspect = false;
  };

  // Recomputes from the recent window and diagnoses against the
  // baseline. Does not replace the baseline. To keep the comparison
  // fair, when the input is longer than the baseline trace it is
  // trimmed to the baseline's length (most recent accesses): MRC
  // parameters of weakly-skewed patterns grow with trace length, and
  // comparing a long window against a short baseline would flag
  // phantom growth.
  Recomputation Recompute(SpanPair<PageId> trace) const;
  Recomputation Recompute(std::span<const PageId> trace) const {
    return Recompute(SpanPair<PageId>(trace));
  }

  size_t stable_trace_length() const { return stable_trace_length_; }

  // Checkpoint support: reinstalls a serialized stable baseline with
  // its trace length (parameters are re-derived from the curve
  // deterministically, so the restored tracker diagnoses identically).
  void RestoreStable(const MissRatioCurve& curve, size_t trace_length) {
    stable_curve_ = curve;
    stable_ = stable_curve_.ComputeParameters(config_);
    stable_trace_length_ = trace_length;
  }

  // Adopts a recomputation as the new stable baseline (after the
  // environment change is accepted, e.g. an index is gone for good).
  void AdoptAsStable(const Recomputation& recomputation);

  const MrcConfig& config() const { return config_; }

 private:
  // The reusable replay stack, created on first use and Reset() after.
  MattsonStack& ScratchStack(size_t expected_accesses) const;

  MrcConfig config_;
  std::optional<MrcParameters> stable_;
  MissRatioCurve stable_curve_;
  size_t stable_trace_length_ = 0;
  mutable std::unique_ptr<MattsonStack> scratch_;
};

}  // namespace fglb

#endif  // FGLB_MRC_MRC_TRACKER_H_

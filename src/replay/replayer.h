#ifndef FGLB_REPLAY_REPLAYER_H_
#define FGLB_REPLAY_REPLAYER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "replay/capture.h"
#include "scenarios/harness.h"

namespace fglb {

// Re-drives a captured run deterministically: the cluster is rebuilt
// from the capture's topology block, the fault schedule is re-armed
// from the captured spec + seed, recorded arrivals are re-submitted
// open-loop at their bit-exact times, and every engine consumes the
// recorded per-class page-access strings instead of generating fresh
// ones. Since the simulator itself is deterministic (events ordered by
// time then scheduling sequence), the controller then sees identical
// inputs and produces an identical decision trace — the replay tests
// compare the buffered trace lines whole and ci.sh `cmp`s the replayed
// --trace-out file against the live one.

struct ReplayBuildOptions {
  // Lenient replay tolerates access-string exhaustion (engines fall
  // back to generation) instead of failing the run. What-if evaluation
  // always runs lenient: changed routing shifts consumption.
  bool lenient = false;
  // Skip recorded executions before this time when seeding the access
  // queues (window replay starts mid-stream).
  double from_time = 0;
};

// Feeds recorded access strings to engines, per-class FIFO. Keyed by
// class (not replica) so a what-if re-placement — which reroutes a
// class to a different replica — still consumes that class's recorded
// stream.
class CaptureAccessSource : public AccessReplaySource {
 public:
  CaptureAccessSource(const Capture* capture, double from_time = 0);

  bool NextAccesses(ClassKey key, std::vector<PageAccess>* out) override;

  uint64_t served() const { return served_; }
  // Requests for a class whose recorded stream was already drained
  // (the engine regenerated instead) — nonzero means divergence.
  uint64_t misses() const { return misses_; }
  // Recorded executions never consumed.
  uint64_t remaining() const { return remaining_; }

 private:
  const Capture* capture_;
  std::map<ClassKey, std::deque<uint64_t>> queues_;  // execution indices
  uint64_t served_ = 0;
  uint64_t misses_ = 0;
  uint64_t remaining_ = 0;
};

// Rebuilds a harness from a capture's info + topology blocks: servers,
// applications, replicas (with their recorded engine seeds), scheduler
// placements, controller config, and — when the capture ran with
// faults — the identical fault schedule. `source`, if non-null, is
// wired into every engine, including replicas the replayed controller
// provisions mid-run. Returns null with *error set when the capture is
// internally inconsistent (e.g. replica ids that cannot be reproduced).
std::unique_ptr<ClusterHarness> BuildClusterFromCapture(
    const Capture& capture, CaptureAccessSource* source, std::string* error);

class ReplayRunner {
 public:
  explicit ReplayRunner(const Capture* capture,
                        ReplayBuildOptions options = {});

  // Rebuilds the cluster (idempotent). Exposed separately so callers
  // can enable tracing on harness().trace() before Run() starts the
  // controller.
  bool Build(std::string* error);

  // Feeds every recorded arrival and runs to the captured duration.
  // In strict (non-lenient) mode, fails if any engine had to fall back
  // to generated accesses or recorded executions went unconsumed —
  // either means the replay diverged from the live run.
  bool Run(std::string* error);

  ClusterHarness* harness() { return harness_.get(); }
  const CaptureAccessSource* source() const { return source_.get(); }
  uint64_t arrivals_fed() const { return arrivals_fed_; }

 private:
  void FeedFrom(size_t index);

  const Capture* capture_;
  ReplayBuildOptions options_;
  // Engines hold raw pointers into source_; harness_ is declared after
  // it so teardown destroys the engines first.
  std::unique_ptr<CaptureAccessSource> source_;
  std::unique_ptr<ClusterHarness> harness_;
  std::map<AppId, Scheduler*> schedulers_;
  uint64_t arrivals_fed_ = 0;
  bool built_ = false;
  bool ran_ = false;
};

}  // namespace fglb

#endif  // FGLB_REPLAY_REPLAYER_H_

#ifndef FGLB_CLUSTER_STATS_CHANNEL_H_
#define FGLB_CLUSTER_STATS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "engine/metrics.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "workload/query_class.h"

namespace fglb {

// Controller-side handling of a degraded statistics feed. The knobs
// ride FGLBCAP1 captures as `stats_spec`; the all-defaults config
// encodes as "" so captures taken before the channel existed decode
// unchanged.
struct StatsChannelConfig {
  // When false the receiver silently substitutes last-known-good stats
  // for missing reports at full confidence — the ablation arm that
  // flaps. When true, confidence decays while reports are missing,
  // IQR fences widen by 1/confidence, and migrate/demote/quota actions
  // are suppressed below act_threshold (shed never is).
  bool guard = true;
  // Confidence is multiplied by `decay` per missed interval and raised
  // by `recover` per fresh report (clamped to 1). The asymmetric
  // recovery is the flap damping: alternating lost/fresh intervals
  // oscillate confidence in [decay, decay + recover] — strictly below
  // act_threshold — so a flapping link can never ping-pong actions.
  double decay = 0.5;
  double recover = 0.25;
  double act_threshold = 0.9;

  std::string ToString() const;
  static bool Parse(const std::string& text, StatsChannelConfig* config,
                    std::string* error);
};

// The transport between StatsCollector::EndInterval and the
// controller: per-replica sequenced, CRC-guarded interval reports
// delivered through the DES. Every report is serialized and decoded
// even on the healthy path (bit-exact: doubles travel as IEEE-754
// bits), so the codec is exercised constantly and a fault-free run
// decides exactly as a direct read of the collectors would. An injected `net`
// fault window makes delivery lossy: reports can be dropped,
// duplicated, corrupted (rejected by CRC at the receiver), delayed or
// reordered behind the next report.
//
// The publisher side (sequence numbers) is data-plane state and
// survives a controller crash; the receiver side (last-known-good
// snapshots, staleness, confidence) is control-plane state that is
// wiped by a `ctl` crash and restored from the FGLBCKPT1 checkpoint.
class StatsChannel {
 public:
  using Snapshot = std::map<ClassKey, MetricVector>;
  // Consults the fault injector for one in-flight report's fate.
  using NetHook =
      std::function<FaultInjector::NetDecision(int replica_id, uint64_t seq)>;

  StatsChannel(Simulator* sim, StatsChannelConfig config);
  StatsChannel(const StatsChannel&) = delete;
  StatsChannel& operator=(const StatsChannel&) = delete;

  void BindObservability(MetricsRegistry* metrics, TraceLog* trace);
  void set_net_hook(NetHook hook) { net_hook_ = std::move(hook); }

  // Publisher side: serializes one replica's interval report, assigns
  // the next sequence number, and sends it. Without an active net
  // fault the report arrives before Publish returns (same tick);
  // `interval_seconds` sizes the reorder penalty (1.5 intervals, so a
  // reordered report lands behind its successor).
  void Publish(int replica_id, const Snapshot& snapshot,
               double interval_seconds);

  // The controller's view of one replica at collection time.
  struct Feed {
    const Snapshot* snapshot = nullptr;  // fresh or last-known-good
    bool fresh = false;
    uint64_t stale_intervals = 0;
    double confidence = 1.0;
    uint64_t last_seq = 0;
  };

  // Receiver side: consumes the freshest pending report (if any
  // arrived since the last Collect) or falls back to last-known-good,
  // updating staleness and confidence. Call once per replica per
  // diagnosis interval, after Publish.
  Feed Collect(int replica_id);

  // True when `confidence` clears the action threshold (always true
  // with the guard off — the unguarded arm acts on anything).
  bool ConfidentToAct(double confidence) const {
    return !config_.guard || confidence >= config_.act_threshold;
  }

  // IQR fence multiplier for a replica at `confidence`: 1 at full
  // confidence, wider as confidence decays (capped so a long outage
  // cannot produce infinite fences).
  double FenceScale(double confidence) const;

  // Drops receiver state for replicas that no longer exist.
  void Retain(const std::vector<int>& live_replica_ids);

  // Control-plane state management for checkpoint/restore and ctl
  // crashes. Serialize/Restore cover only the receiver side; publisher
  // sequence numbers are data-plane state and survive both paths.
  void SerializeReceiverState(std::string* out) const;
  bool RestoreReceiverState(const uint8_t* p, const uint8_t* limit);
  void ResetReceiverState() { receivers_.clear(); }

  const StatsChannelConfig& config() const { return config_; }
  void set_config(const StatsChannelConfig& config) { config_ = config; }

 private:
  struct Receiver {
    uint64_t last_seq = 0;
    uint64_t stale_intervals = 0;
    double confidence = 1.0;
    Snapshot last_known_good;
    Snapshot pending;
    uint64_t pending_seq = 0;
    bool has_pending = false;
  };

  void Deliver(const std::string& bytes);
  void EmitRecovery(const char* why, int replica_id, uint64_t report_seq,
                    uint64_t stale_intervals, double confidence);

  Simulator* sim_;
  StatsChannelConfig config_;
  NetHook net_hook_;
  std::map<int, uint64_t> publish_seq_;
  std::map<int, Receiver> receivers_;
  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  Counter* published_ = nullptr;
  Counter* delivered_ = nullptr;
  Counter* dropped_ = nullptr;
  Counter* corrupt_rejected_ = nullptr;
  Counter* late_rejected_ = nullptr;
  Counter* duplicate_ignored_ = nullptr;
  Counter* stale_collects_ = nullptr;
  Counter* resyncs_ = nullptr;
};

}  // namespace fglb

#endif  // FGLB_CLUSTER_STATS_CHANNEL_H_

#ifndef FGLB_REPLAY_CAPTURE_H_
#define FGLB_REPLAY_CAPTURE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/selective_retuner.h"
#include "sim/simulator.h"
#include "storage/page.h"
#include "workload/application.h"
#include "workload/capture_hooks.h"
#include "workload/query_class.h"

namespace fglb {

class ClusterHarness;

// Workload capture: a versioned, compact binary recording of one full
// cluster run — initial topology, every query arrival, every
// execution's concrete page-access string, plus the controller's
// action log and interval series — from which the replay subsystem can
// re-drive the engine/scheduler/controller deterministically and
// evaluate what-if actions offline.
//
// File layout (magic "FGLBCAP1", then a sequence of blocks):
//
//   block   := type:u8  payload_len:fixed32  crc32:fixed32  payload
//   types      1 info, 2 topology, 3 events (repeats), 4 actions,
//              5 samples, 6 end
//
// Payload scalars are varints; signed deltas are zigzag varints;
// doubles travel as fixed64 IEEE bit patterns, except event timestamps
// which are zigzag-varint deltas of consecutive bit patterns (the
// stream is time-ordered, so consecutive patterns are close and the
// encoding stays bit-exact — replay must re-submit at the *identical*
// double time). Page ids are zigzag-varint deltas within an execution.
// Every block's payload is CRC-32 guarded; a reader rejects truncated
// files (no end block), trailing garbage, unknown block types and any
// checksum mismatch.

// Run-identifying metadata (block type 1). `fault_spec`/`fault_seed`
// let the replayer re-arm the identical deterministic fault schedule;
// the controller knobs are the ones that change decisions.
struct CaptureInfo {
  uint64_t seed = 1;
  uint64_t fault_seed = 1;
  std::string scenario;
  std::string fault_spec;
  double duration_seconds = 0;
  double interval_seconds = 10;
  double mrc_sample_rate = 1.0;
  int max_migrations_per_interval = 0;
  // AdmissionConfig::ToString() of the run's overload protection;
  // empty = admission off. Trails the info block as an optional field,
  // so captures written before it existed still decode.
  std::string admission_spec;
  // SpanConfig::ToString() of the run's sampled span tracing; empty =
  // tracing off. Also a trailing optional field.
  std::string span_spec;
  // MrcSpecString() of the run's MRC diagnosis configuration; empty =
  // all defaults (no OPT regret). Also a trailing optional field.
  std::string mrc_spec;
  // TierConfig::ToString() of the engines' second-tier cache; empty =
  // tierless (the pre-tier behaviour). Also a trailing optional field.
  std::string tier_spec;
  // DRAM replacement policy of the run. Engines run LRU only, so
  // captures write ""; older ones may say "lru" (the same run) or
  // "clock"/"arc", which replay rejects. Also a trailing optional
  // field.
  std::string replacement_spec;
  // StatsChannelConfig::ToString() of the run's stats channel; empty =
  // all defaults. Older captures wrote "guard=on" for the default
  // channel and "" for a direct engine hand-off; both replay over the
  // default channel. Also a trailing optional field.
  std::string stats_spec;
  // Controller checkpoint cadence ("interval=<seconds>"); empty =
  // checkpointing off. Also a trailing optional field.
  std::string ckpt_spec;
};

// Initial cluster assembly (block type 2), sufficient to rebuild the
// pre-Start() state: replicas created later (provisioning, restarts)
// are reproduced by the replayed controller itself.
struct CaptureServerSpec {
  int cores = 4;
  uint64_t memory_pages = 16384;
  double random_read_seconds = 0.002;
  double extent_read_seconds = 0.006;
  double page_write_seconds = 0.001;
};

struct CaptureReplicaSpec {
  int id = 0;
  int server = 0;
  uint64_t pool_pages = 0;
  uint64_t engine_seed = 1;
};

// Replica ids attached to one application's scheduler, in AddReplica
// order (the order feeds the scheduler's round-robin state).
struct CapturePlacement {
  AppId app = 0;
  std::vector<int> replica_ids;
};

struct CaptureTopology {
  std::vector<CaptureServerSpec> servers;
  std::vector<ApplicationSpec> apps;  // registration order
  std::vector<CaptureReplicaSpec> replicas;
  std::vector<CapturePlacement> placements;
};

// One recorded query arrival at a scheduler.
struct CaptureArrival {
  double t = 0;
  AppId app = 0;
  QueryClassId cls = 0;
  uint64_t client_id = 0;
};

// One recorded execution: `access_count` entries of Capture::accesses
// starting at `access_begin` (flat pool, avoids per-execution
// allocations).
struct CaptureExecution {
  double t = 0;
  int replica = 0;
  ClassKey key = 0;
  uint64_t access_begin = 0;
  uint32_t access_count = 0;
};

struct CaptureAction {
  double t = 0;
  uint8_t kind = 0;  // SelectiveRetuner::ActionKind
  AppId app = 0;
  std::string description;
};

// Mirrors SelectiveRetuner::IntervalSample (stored so summaries and
// what-if window selection need no re-simulation).
struct CaptureAppSample {
  AppId app = 0;
  uint64_t queries = 0;
  double avg_latency = 0;
  double p95_latency = 0;
  double throughput = 0;
  bool sla_met = true;
  int servers_used = 0;
};

struct CaptureServerSample {
  int server_id = 0;
  double cpu_utilization = 0;
  double io_utilization = 0;
};

struct CaptureSample {
  double t = 0;
  std::vector<CaptureAppSample> apps;
  std::vector<CaptureServerSample> servers;
};

// A fully loaded capture.
struct Capture {
  CaptureInfo info;
  CaptureTopology topology;
  std::vector<CaptureArrival> arrivals;
  std::vector<CaptureExecution> executions;
  std::vector<PageAccess> accesses;  // flat pool for executions
  std::vector<CaptureAction> actions;
  std::vector<CaptureSample> samples;

  const ApplicationSpec* FindApp(AppId app) const;
};

// Incremental capture writer. Hook it into a live run via
// ClusterHarness::AttachRecorders(); events are buffered and flushed
// as CRC-guarded blocks once the buffer passes a threshold, so capture
// cost stays O(bytes) with no per-event I/O.
class CaptureWriter : public ArrivalRecorder, public ExecutionRecorder {
 public:
  explicit CaptureWriter(Simulator* sim);
  ~CaptureWriter() override;
  CaptureWriter(const CaptureWriter&) = delete;
  CaptureWriter& operator=(const CaptureWriter&) = delete;

  // Opens `path` and writes the info + topology blocks. Returns false
  // with a message in *error on I/O failure.
  bool Open(const std::string& path, const CaptureInfo& info,
            const CaptureTopology& topology, std::string* error);

  // Recorder hooks (stamped with the simulator's current time).
  void OnArrival(const QueryInstance& query) override;
  void OnExecution(int replica_id, ClassKey key,
                   const std::vector<PageAccess>& accesses) override;

  // Writes the actions/samples/end blocks and closes the file. Returns
  // false on I/O failure. The writer must not be reused afterwards.
  bool Finalize(const std::vector<SelectiveRetuner::Action>& actions,
                const std::vector<SelectiveRetuner::IntervalSample>& samples);

  uint64_t arrivals_recorded() const { return arrivals_; }
  uint64_t executions_recorded() const { return executions_; }
  uint64_t accesses_recorded() const { return accesses_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  void PutTime(double t);
  bool FlushEvents(bool force);
  bool WriteBlock(uint8_t type, const std::string& payload);

  Simulator* sim_;
  std::FILE* file_ = nullptr;
  std::string events_;  // pending events-block payload
  uint64_t prev_time_bits_ = 0;
  uint64_t arrivals_ = 0;
  uint64_t executions_ = 0;
  uint64_t accesses_ = 0;
  uint64_t bytes_written_ = 0;
  bool failed_ = false;
};

// Loads a capture file written by CaptureWriter. Returns false with a
// one-line message in *error on I/O error, version mismatch,
// truncation, checksum mismatch or trailing garbage; *out is left in
// an unspecified state on failure.
bool ReadCapture(const std::string& path, Capture* out, std::string* error);

// Snapshots a fully assembled (pre-Start) harness into the topology
// section the writer needs.
CaptureTopology SnapshotTopology(ClusterHarness& harness);

}  // namespace fglb

#endif  // FGLB_REPLAY_CAPTURE_H_

#ifndef FGLB_CORE_SELECTIVE_RETUNER_H_
#define FGLB_CORE_SELECTIVE_RETUNER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/resource_manager.h"
#include "cluster/scheduler.h"
#include "common/metrics_registry.h"
#include "common/trace_log.h"
#include "core/log_analyzer.h"
#include "core/outlier_detector.h"
#include "core/quota_planner.h"
#include "mrc/miss_ratio_curve.h"
#include "sim/simulator.h"

namespace fglb {

class SpanTracer;
class StatsChannel;

// Fate of one controller migration attempt, as decided by an optional
// interceptor (the fault injector, in chaos runs): the attempt may fail
// outright (the controller retries with backoff) or be applied only
// after a delay (a slow migration).
struct MigrationOutcome {
  bool fail = false;
  double delay_seconds = 0;
};

// The paper's selective retuning control loop (§3.2): every
// measurement interval it checks each application's SLA, refreshes
// stable-state signatures on clean intervals, and on violations runs
// the diagnosis cascade —
//
//   CPU saturation        -> reactive replica provisioning
//   memory interference   -> outlier contexts -> MRC recomputation ->
//                            per-class quota OR re-placement on a
//                            different replica
//   I/O interference      -> evict contexts by decreasing I/O rate
//   still failing         -> coarse-grained fallback: new replicas and
//                            application isolation
//
// Every decision is appended to an action log and every interval to a
// sample series, which the benchmarks print as the paper's figures.
class SelectiveRetuner {
 public:
  struct Config {
    double interval_seconds = 10;

    double cpu_saturation_threshold = 0.85;
    // De-provision a replica when the app meets its SLA with average
    // CPU utilization below this for `release_after` intervals.
    double cpu_release_threshold = 0.30;
    int release_after = 3;

    double io_saturation_threshold = 0.85;
    double io_target_utilization = 0.60;
    // Class-eviction is only the right response when I/O is *skewed*:
    // the heaviest class must contribute at least this share of the
    // channel's utilization. Unskewed saturation is a capacity problem
    // and gets a replica instead.
    double io_skew_share = 0.4;

    // After the replica set of an application changes (bootstrap,
    // provisioning, isolation), give buffer pools this many intervals
    // to warm before diagnosing anything beyond CPU saturation.
    int warmup_intervals = 3;

    // A class placed on a new replica is not moved again for this many
    // intervals (anti-thrash).
    int placement_cooldown_intervals = 9;

    // Consecutive violating intervals before coarse fallback.
    int coarse_fallback_after = 4;

    // Overload escalation: when admission control fast-fails at least
    // this share of an application's offered load over an interval, the
    // cluster is short on capacity no matter what the (shed-protected)
    // latency says — skip the diagnosis cascade and provision a replica
    // directly.
    double overload_shed_share = 0.25;

    uint64_t replica_pool_pages = 8192;

    OutlierConfig outlier;
    MrcConfig mrc;

    // "Similar algorithms on the top-k heavyweight queries" when no
    // outlier contexts are found.
    size_t top_k_fallback = 3;

    // Ablation knob: disable the fine-grained paths entirely (every
    // violation goes straight to coarse provisioning).
    bool enable_fine_grained = true;

    // Monitoring-only mode: collect samples and diagnoses but take no
    // action at all (benchmarks use this to measure the broken state).
    bool enable_actions = true;

    // --- migration hardening (fault tolerance) ---
    // A class migration gets 1 initial attempt plus this many retries
    // before it is abandoned (and its class cools down).
    int migration_max_retries = 2;
    // The first retry waits this long; each further retry doubles it.
    double migration_retry_backoff_seconds = 2;
    // A migration not applied within this window of its start is
    // abandoned, whatever its retry budget still holds.
    double migration_timeout_seconds = 30;
    // Migrations the controller may *start* per interval; 0 = unlimited
    // (the default keeps fault-free behaviour unchanged).
    int max_migrations_per_interval = 0;
    // Consulted once per migration attempt; unset means every attempt
    // applies immediately (the fault-free fast path).
    std::function<MigrationOutcome(ClassKey, int attempt)>
        migration_interceptor;

    // Observability hooks, both optional. `metrics` registers
    // controller.* instruments (tick/phase durations, violation and
    // per-kind action counters, per-server utilization gauges);
    // `trace` receives one structured event per diagnosis phase per
    // violating interval (sla -> impact -> iqr -> mrc -> action).
    MetricsRegistry* metrics = nullptr;
    TraceLog* trace = nullptr;
    // Sampled span tracer: phase=impact events carry its measured
    // per-class wait profile, and controller phase marks land on its
    // exported timeline.
    SpanTracer* spans = nullptr;
  };

  enum class ActionKind {
    kCpuProvision,
    kIoProvision,
    kCpuRelease,
    kQuotaEnforced,
    kClassRescheduled,
    kIoEviction,
    kCoarseFallback,
    // Cheapest memory rung on tiered engines: cap the class's DRAM
    // quota and give its working-set overflow a tier-2 quota instead
    // of migrating it. Appended last — captures persist the kind as a
    // small integer.
    kDemote,
  };

  struct Action {
    SimTime time = 0;
    ActionKind kind = ActionKind::kCpuProvision;
    AppId app = 0;
    std::string description;
  };

  struct AppSample {
    AppId app = 0;
    uint64_t queries = 0;
    double avg_latency = 0;
    double p95_latency = 0;
    double throughput = 0;
    bool sla_met = true;
    int servers_used = 0;
  };

  struct ServerSample {
    int server_id = 0;
    double cpu_utilization = 0;
    double io_utilization = 0;
  };

  struct IntervalSample {
    SimTime time = 0;
    std::vector<AppSample> apps;
    std::vector<ServerSample> servers;
  };

  // One memory-diagnosis pass, recorded for inspection: the outlier
  // report the violating interval produced on one engine, and the MRC
  // verdict per candidate.
  struct DiagnosisRecord {
    SimTime time = 0;
    AppId app = 0;
    int replica_id = -1;
    OutlierReport outliers;
    LogAnalyzer::MemoryDiagnosis memory;
  };

  // `channel` is the telemetry transport, owned by the caller: Tick
  // publishes every replica's interval report through it and collects
  // the controller's (possibly stale, last-known-good) view back.
  // Stale feeds widen the IQR fences and, below the confidence
  // threshold, suppress per-class quota/demote/migration actions —
  // shed and CPU provisioning run on app-level latency and are never
  // gated.
  SelectiveRetuner(Simulator* sim, ResourceManager* resources,
                   StatsChannel* channel, Config config);
  SelectiveRetuner(const SelectiveRetuner&) = delete;
  SelectiveRetuner& operator=(const SelectiveRetuner&) = delete;

  // Registers an application's scheduler with the control loop.
  void RegisterApplication(Scheduler* scheduler);

  // Begins interval ticks at Now() + interval.
  void Start();

  // Runs one measurement-interval evaluation immediately (exposed for
  // tests and trace-driven benchmarks; Start() calls it periodically).
  void Tick();

  // The per-engine analyzer, created on first use.
  LogAnalyzer& AnalyzerFor(DatabaseEngine* engine);

  // Installs/replaces the migration interceptor after construction (the
  // harness wires the fault injector in once both exist).
  void set_migration_interceptor(
      std::function<MigrationOutcome(ClassKey, int)> interceptor) {
    config_.migration_interceptor = std::move(interceptor);
  }

  // Overload-protection coupling: sustained shedding escalates straight
  // to replica provisioning, and placement never targets a replica with
  // an open circuit breaker. Null (the default) decouples.
  void set_admission(AdmissionController* admission) {
    admission_ = admission;
  }

  // Late-binds the span tracer (the harness enables tracing after
  // construction). Null detaches.
  void set_span_tracer(SpanTracer* spans) { spans_ = spans; }

  // --- controller crash/restart (ctl faults) ---
  // Stop halts the interval ticker and strands every in-flight
  // callback (the armed tick and pending migration retries/delayed
  // applies die with the epoch). Restart re-arms the ticker so the
  // next tick lands one interval after the restart. ResetControlState
  // is the cold-start path: it drops all diagnostic state (analyzers,
  // streaks, warmup/cooldown clocks, in-flight migration bookkeeping)
  // while keeping the action/sample/diagnosis history — those are
  // observability records of the run, not control state.
  void Stop();
  void Restart();
  void ResetControlState();

  // Checkpoint support (FGLBCKPT1): the retuner section — violation/
  // calm streaks, warmup and cooldown clocks, and per-replica analyzer
  // state (stable signatures + stable MRC baselines, keyed by replica
  // id so the blob survives the engine pointers dying with the
  // controller). In-flight migrations are recorded by class key and
  // restored as placement cooldowns: their callbacks died with the
  // crash, and the cooldown guarantees the restarted controller cannot
  // re-issue the same move inside the flap window.
  void SerializeControlState(std::string* out) const;
  bool RestoreControlState(const uint8_t* p, const uint8_t* limit);

  const std::vector<Action>& actions() const { return actions_; }
  const std::vector<IntervalSample>& samples() const { return samples_; }
  const std::vector<DiagnosisRecord>& diagnoses() const { return diagnoses_; }
  const Config& config() const { return config_; }

  // Lifetime counters over the migration state machine; the chaos tests
  // assert its invariants (attempts bounded, abandoned moves cool down).
  struct MigrationStats {
    uint64_t started = 0;
    uint64_t applied = 0;
    uint64_t delayed = 0;
    uint64_t failed_attempts = 0;
    uint64_t abandoned = 0;
    int max_attempts_observed = 0;
  };
  const MigrationStats& migration_stats() const { return migration_stats_; }

  static const char* ActionKindName(ActionKind kind);

 private:
  using Snapshot = std::map<ClassKey, MetricVector>;

  // Returns the reason the interval acted on nothing ("monitoring",
  // "coarse_only", "no_stats", "no_action"); used as the skip-with-
  // reason `why` when the scope closes without actions.
  const char* HandleViolation(Scheduler* scheduler,
                              const Scheduler::IntervalReport& report,
                              const std::map<Replica*, Snapshot>& snapshots);
  bool TryCpuProvisioning(Scheduler* scheduler);
  // `act` false = diagnose and record only (monitoring mode).
  bool TryMemoryRetuning(Scheduler* scheduler,
                         const std::map<Replica*, Snapshot>& snapshots,
                         bool act = true);
  bool TryIoRetuning(Scheduler* scheduler,
                     const std::map<Replica*, Snapshot>& snapshots);
  void CoarseFallback(Scheduler* scheduler);
  void MaybeRelease(Scheduler* scheduler);

  // Finds (or provisions) a replica of `scheduler`'s app, other than
  // `avoid`, that passes the acceptable-memory fit test for `incoming`.
  Replica* FindPlacementTarget(Scheduler* scheduler, Replica* avoid,
                               const ClassMemoryProfile& incoming);

  // --- migration state machine ---
  // Every class re-placement goes through here. Replicas are carried by
  // id (delayed applies must survive the source/target dying); the
  // fault-free fast path (no interceptor) applies inline, producing the
  // exact same action stream as direct application used to.
  struct PendingMigration {
    ClassKey key = 0;
    AppId app = 0;  // owner application
    int source_id = -1;
    int target_id = -1;
    ActionKind kind = ActionKind::kClassRescheduled;
    std::string description;
    bool adopt_recomputation = false;
    ClassMemoryProfile profile;  // for re-finding a lost target
    SimTime started = 0;
    int attempt = 0;
  };
  // False when the per-interval budget or an in-flight migration of the
  // same class blocks the start.
  bool StartMigration(Scheduler* owner, Replica* source, Replica* target,
                      ClassKey key, ActionKind kind, std::string description,
                      bool adopt_recomputation,
                      const ClassMemoryProfile& profile);
  void AttemptMigration(PendingMigration m);
  bool ApplyMigration(const PendingMigration& m);
  void AbandonMigration(const PendingMigration& m, const char* why);

  // Drops analyzers whose engine no longer exists (decommissioned or
  // crash-destroyed); a new engine reusing the address must not inherit
  // stale state, and the analyzer's engine pointer would dangle.
  void PruneDeadAnalyzers();

  // Arms the periodic ticker for the current epoch; Stop() bumps the
  // epoch, so a stranded callback fires once and does nothing.
  void ArmTicker();

  // The controller's view of one replica's telemetry feed this tick
  // (all-fresh defaults when the replica is unknown).
  struct FeedState {
    bool fresh = true;
    uint64_t stale_intervals = 0;
    double confidence = 1.0;
  };
  bool FeedFresh(int replica_id) const;
  double FeedConfidence(int replica_id) const;

  void Log(ActionKind kind, AppId app, std::string description);

  // --- decision tracing ---
  // A violating interval opens a scope (emitting the "sla" event); the
  // cascade emits "impact"/"iqr"/"mrc" events as those phases run;
  // closing the scope back-fills skipped:true events for phases that
  // never ran and then emits the interval's "action" events (deferred
  // so phase order in the trace is always sla, impact, iqr, mrc,
  // action) — or a single kind:"none" action carrying `why` when the
  // interval acted on nothing.
  void BeginViolationScope(Scheduler* scheduler,
                           const Scheduler::IntervalReport& report,
                           double end_interval_us);
  void EndViolationScope(const char* why);
  bool Tracing() const { return trace_ != nullptr && trace_->enabled(); }
  void TraceOutlierPhases(AppId app, int replica_id,
                          const OutlierReport& report);
  // `tier2` non-null adds the engine's second-tier state to the event
  // (tier2_pages/tier2_resident/tier2_read_us); tierless traces are
  // byte-identical to before the tier existed.
  void TraceMrcPhase(AppId app, int replica_id, double dur_us,
                     size_t candidates, LogAnalyzer& analyzer,
                     const LogAnalyzer::MemoryDiagnosis& diagnosis,
                     const TieredBufferPool* tier2);
  void EmitActionEvent(const Action& action);

  // Whether the app's pools are still warming after a topology change.
  bool InWarmup(AppId app) const;
  // Whether the class was re-placed too recently to move again.
  bool InPlacementCooldown(ClassKey key) const;
  void NotePlacementChange(ClassKey key);
  void NoteTopologyChange(AppId app);

  Simulator* sim_;
  ResourceManager* resources_;
  Config config_;
  AdmissionController* admission_ = nullptr;
  QuotaPlanner planner_;
  std::vector<Scheduler*> schedulers_;
  std::map<DatabaseEngine*, std::unique_ptr<LogAnalyzer>> analyzers_;
  std::map<AppId, int> violation_streak_;
  std::map<AppId, int> calm_streak_;
  std::map<AppId, SimTime> last_topology_change_;
  std::map<AppId, size_t> last_replica_count_;
  std::map<ClassKey, SimTime> last_placement_change_;
  std::map<AppId, SimTime> last_coarse_fallback_;
  std::vector<Action> actions_;
  std::vector<IntervalSample> samples_;
  std::vector<DiagnosisRecord> diagnoses_;
  bool started_ = false;
  MigrationStats migration_stats_;
  int migrations_this_interval_ = 0;
  std::set<ClassKey> migrating_;  // classes with an in-flight migration

  StatsChannel* channel_;
  std::map<int, FeedState> feeds_;  // rebuilt each tick, keyed by replica id
  // Bumped by Stop(): scheduled callbacks capture the epoch they were
  // armed under and no-op if the controller crashed since.
  uint64_t epoch_ = 0;
  // Set while a violation's actions were withheld for stale telemetry;
  // the scope closes with why="low_confidence" instead of "no_action".
  bool low_confidence_suppressed_ = false;

  MetricsRegistry* metrics_ = nullptr;
  TraceLog* trace_ = nullptr;
  SpanTracer* spans_ = nullptr;
  LatencyHistogram* tick_us_ = nullptr;
  Counter* violations_ = nullptr;
  struct ViolationScope {
    bool active = false;
    AppId app = 0;
    bool impact_emitted = false;
    bool iqr_emitted = false;
    bool mrc_emitted = false;
    size_t actions_before = 0;
  };
  ViolationScope scope_;
};

}  // namespace fglb

#endif  // FGLB_CORE_SELECTIVE_RETUNER_H_

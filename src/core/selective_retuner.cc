#include "core/selective_retuner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "cluster/stats_channel.h"
#include "common/json.h"
#include "common/span_tracer.h"
#include "common/varint.h"
#include "core/io_interference.h"

namespace fglb {

namespace {

std::string ClassLabel(ClassKey key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "app=%u/class=%u", AppOf(key), ClassOf(key));
  return buf;
}

// {"app":1,"cls":3} fragment used by every per-class trace payload.
void AppendClassFields(std::string* out, ClassKey key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"app\":%u,\"cls\":%u", AppOf(key),
                ClassOf(key));
  *out += buf;
}

}  // namespace

SelectiveRetuner::SelectiveRetuner(Simulator* sim, ResourceManager* resources,
                                   StatsChannel* channel, Config config)
    : sim_(sim),
      resources_(resources),
      config_(config),
      channel_(channel),
      metrics_(config.metrics),
      trace_(config.trace),
      spans_(config.spans) {
  assert(sim_ && resources_ && channel_);
  if (metrics_ != nullptr) {
    tick_us_ = metrics_->histogram("controller.tick_us");
    violations_ = metrics_->counter("controller.violations");
    planner_.BindMetrics(metrics_);
  }
}

const char* SelectiveRetuner::ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kCpuProvision:
      return "cpu_provision";
    case ActionKind::kIoProvision:
      return "io_provision";
    case ActionKind::kCpuRelease:
      return "cpu_release";
    case ActionKind::kQuotaEnforced:
      return "quota_enforced";
    case ActionKind::kClassRescheduled:
      return "class_rescheduled";
    case ActionKind::kIoEviction:
      return "io_eviction";
    case ActionKind::kCoarseFallback:
      return "coarse_fallback";
    case ActionKind::kDemote:
      return "demote";
  }
  return "unknown";
}

void SelectiveRetuner::RegisterApplication(Scheduler* scheduler) {
  assert(scheduler != nullptr);
  schedulers_.push_back(scheduler);
}

LogAnalyzer& SelectiveRetuner::AnalyzerFor(DatabaseEngine* engine) {
  auto it = analyzers_.find(engine);
  if (it == analyzers_.end()) {
    it = analyzers_
             .emplace(engine,
                      std::make_unique<LogAnalyzer>(engine, config_.outlier,
                                                    config_.mrc, metrics_))
             .first;
  }
  return *it->second;
}

void SelectiveRetuner::Start() {
  if (started_) return;
  started_ = true;
  for (const auto& server : resources_->servers()) {
    server->ResetUtilizationWindow();
  }
  ArmTicker();
}

void SelectiveRetuner::ArmTicker() {
  const uint64_t epoch = epoch_;
  sim_->ScheduleAfter(config_.interval_seconds, [this, epoch] {
    if (epoch != epoch_) return;  // the controller crashed since arming
    Tick();
    ArmTicker();
  });
}

void SelectiveRetuner::Stop() {
  if (!started_) return;
  started_ = false;
  ++epoch_;  // strands the armed tick and every migration callback
}

void SelectiveRetuner::Restart() {
  if (started_) return;
  started_ = true;
  ArmTicker();
}

void SelectiveRetuner::ResetControlState() {
  analyzers_.clear();
  violation_streak_.clear();
  calm_streak_.clear();
  last_topology_change_.clear();
  last_replica_count_.clear();
  last_placement_change_.clear();
  last_coarse_fallback_.clear();
  migrating_.clear();
  feeds_.clear();
  scope_ = ViolationScope{};
  // actions_/samples_/diagnoses_/migration_stats_ survive: they are
  // the run's observability history, not control state. Migrations
  // whose callbacks died with the controller count as neither applied
  // nor abandoned.
}

void SelectiveRetuner::Log(ActionKind kind, AppId app,
                           std::string description) {
  actions_.push_back(Action{sim_->Now(), kind, app, std::move(description)});
  if (spans_ != nullptr) spans_->RecordPhase("action", app, sim_->Now());
  if (metrics_ != nullptr) {
    metrics_
        ->counter(std::string("controller.actions.") + ActionKindName(kind))
        ->Increment();
  }
  // In-scope actions are emitted when the scope closes so the trace
  // keeps its phase order; out-of-scope ones (e.g. a clean interval
  // releasing capacity) go out immediately.
  if (!scope_.active && Tracing()) EmitActionEvent(actions_.back());
}

void SelectiveRetuner::EmitActionEvent(const Action& action) {
  TraceEvent event("action");
  event.Num("t", action.time)
      .Uint("app", action.app)
      .Str("kind", ActionKindName(action.kind))
      .Str("desc", action.description);
  trace_->Emit(event);
}

void SelectiveRetuner::BeginViolationScope(
    Scheduler* scheduler, const Scheduler::IntervalReport& report) {
  scope_ = ViolationScope{};
  scope_.active = true;
  scope_.app = scheduler->app().id;
  scope_.actions_before = actions_.size();
  if (spans_ != nullptr) spans_->RecordPhase("sla", scope_.app, sim_->Now());
  if (!Tracing()) return;
  TraceEvent event("sla");
  event.Num("t", sim_->Now())
      .Uint("app", scope_.app)
      .Uint("queries", report.queries)
      .Num("avg_latency", report.avg_latency)
      .Num("p95_latency", report.p95_latency)
      .Num("throughput", report.throughput)
      .Bool("sla_met", report.sla_met)
      .Int("streak", violation_streak_[scope_.app])
      .Int("servers_used", resources_->ServersUsedBy(*scheduler));
  // Telemetry health of this app's replica set.
  double min_conf = 1.0;
  int stale = 0;
  for (Replica* r : scheduler->replicas()) {
    const auto it = feeds_.find(r->id());
    if (it == feeds_.end()) continue;
    min_conf = std::min(min_conf, it->second.confidence);
    if (!it->second.fresh) ++stale;
  }
  event.Num("stats_conf", min_conf).Int("stale_replicas", stale);
  trace_->Emit(event);
}

bool SelectiveRetuner::FeedFresh(int replica_id) const {
  const auto it = feeds_.find(replica_id);
  return it == feeds_.end() || it->second.fresh;
}

double SelectiveRetuner::FeedConfidence(int replica_id) const {
  const auto it = feeds_.find(replica_id);
  return it == feeds_.end() ? 1.0 : it->second.confidence;
}

void SelectiveRetuner::EndViolationScope(const char* why) {
  if (!scope_.active) return;
  if (Tracing()) {
    // Back-fill the phases the cascade never reached so every violating
    // interval carries the complete sla->impact->iqr->mrc->action chain.
    const char* skipped[3] = {
        scope_.impact_emitted ? nullptr : "impact",
        scope_.iqr_emitted ? nullptr : "iqr",
        scope_.mrc_emitted ? nullptr : "mrc",
    };
    for (const char* phase : skipped) {
      if (phase == nullptr) continue;
      TraceEvent event(phase);
      event.Num("t", sim_->Now())
          .Uint("app", scope_.app)
          .Bool("skipped", true)
          .Str("why", why);
      trace_->Emit(event);
    }
    if (actions_.size() == scope_.actions_before) {
      TraceEvent event("action");
      event.Num("t", sim_->Now())
          .Uint("app", scope_.app)
          .Str("kind", "none")
          .Str("why", why);
      trace_->Emit(event);
    } else {
      for (size_t i = scope_.actions_before; i < actions_.size(); ++i) {
        EmitActionEvent(actions_[i]);
      }
    }
  }
  scope_ = ViolationScope{};
}

void SelectiveRetuner::TraceOutlierPhases(AppId app, int replica_id,
                                          const OutlierReport& report) {
  // "impact": the weighted current/stable ratio vectors the fences see.
  // Metric order inside the arrays is kAllMetrics order.
  std::string classes = "[";
  bool first_class = true;
  std::set<ClassKey> keys;
  for (const auto& [metric, per_class] : report.ratios) {
    for (const auto& [key, value] : per_class) keys.insert(key);
  }
  for (ClassKey key : keys) {
    if (!first_class) classes += ',';
    first_class = false;
    classes += '{';
    AppendClassFields(&classes, key);
    classes += ",\"ratio\":[";
    for (size_t m = 0; m < kAllMetrics.size(); ++m) {
      if (m > 0) classes += ',';
      const auto metric_it = report.ratios.find(kAllMetrics[m]);
      const double v = metric_it != report.ratios.end() &&
                               metric_it->second.contains(key)
                           ? metric_it->second.at(key)
                           : 0.0;
      classes += JsonNumber(v);
    }
    classes += "],\"impact\":[";
    for (size_t m = 0; m < kAllMetrics.size(); ++m) {
      if (m > 0) classes += ',';
      const auto metric_it = report.impacts.find(kAllMetrics[m]);
      const double v = metric_it != report.impacts.end() &&
                               metric_it->second.contains(key)
                           ? metric_it->second.at(key)
                           : 0.0;
      classes += JsonNumber(v);
    }
    classes += "]}";
  }
  classes += ']';
  TraceEvent impact("impact");
  impact.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica_id)
      .Raw("classes", classes);
  if (spans_ != nullptr) {
    // Measured latency breakdown alongside the inferred ratios: every
    // value derives from simulated time, so replays reproduce it.
    impact.Raw("wait_profile", spans_->WaitProfileJson(app));
  }
  trace_->Emit(impact);
  scope_.impact_emitted = true;

  // "iqr": the fences applied per metric plus the resulting verdicts.
  std::string fences = "[";
  for (size_t i = 0; i < report.fences.size(); ++i) {
    const FenceSummary& f = report.fences[i];
    if (i > 0) fences += ',';
    fences += "{\"metric\":\"";
    fences += MetricName(f.metric);
    fences += "\",\"q1\":" + JsonNumber(f.q1) +
              ",\"q3\":" + JsonNumber(f.q3) + ",\"iqr\":" + JsonNumber(f.iqr) +
              ",\"inner_lo\":" + JsonNumber(f.inner_lo) +
              ",\"inner_hi\":" + JsonNumber(f.inner_hi) +
              ",\"outer_lo\":" + JsonNumber(f.outer_lo) +
              ",\"outer_hi\":" + JsonNumber(f.outer_hi) + "}";
  }
  fences += ']';
  std::string outliers = "[";
  for (size_t i = 0; i < report.outliers.size(); ++i) {
    const MetricOutlier& o = report.outliers[i];
    if (i > 0) outliers += ',';
    outliers += '{';
    AppendClassFields(&outliers, o.key);
    outliers += ",\"metric\":\"";
    outliers += MetricName(o.metric);
    outliers += "\",\"ratio\":" + JsonNumber(o.ratio) +
                ",\"impact\":" + JsonNumber(o.impact) + ",\"degree\":\"" +
                (o.degree == OutlierDegree::kExtreme ? "extreme" : "mild") +
                "\",\"high\":" + (o.high_side ? "true" : "false") + "}";
  }
  outliers += ']';
  std::string fresh = "[";
  for (size_t i = 0; i < report.new_classes.size(); ++i) {
    if (i > 0) fresh += ',';
    fresh += '{';
    AppendClassFields(&fresh, report.new_classes[i]);
    fresh += '}';
  }
  fresh += ']';
  TraceEvent iqr("iqr");
  iqr.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica_id)
      .Raw("fences", fences)
      .Raw("outliers", outliers)
      .Raw("new_classes", fresh);
  trace_->Emit(iqr);
  scope_.iqr_emitted = true;
}

void SelectiveRetuner::TraceMrcPhase(
    AppId app, int replica_id, size_t candidates, LogAnalyzer& analyzer,
    const LogAnalyzer::MemoryDiagnosis& diagnosis,
    const TieredBufferPool* tier2) {
  auto profile_array = [&analyzer](
                           const std::vector<ClassMemoryProfile>& profiles) {
    std::string out = "[";
    for (size_t i = 0; i < profiles.size(); ++i) {
      const ClassMemoryProfile& p = profiles[i];
      if (i > 0) out += ',';
      out += '{';
      AppendClassFields(&out, p.key);
      out += ",\"total_pages\":" + std::to_string(p.params.total_memory_pages);
      out += ",\"acceptable_pages\":" +
             std::to_string(p.params.acceptable_memory_pages);
      if (const MrcParameters* stable = analyzer.StableParamsOf(p.key)) {
        out += ",\"stable_total_pages\":" +
               std::to_string(stable->total_memory_pages);
        out += ",\"stable_acceptable_pages\":" +
               std::to_string(stable->acceptable_memory_pages);
      }
      if (p.regret_vs_opt >= 0) {
        out += ",\"regret_vs_opt\":" + JsonNumber(p.regret_vs_opt);
      }
      out += '}';
    }
    out += ']';
    return out;
  };
  std::string insufficient = "[";
  for (size_t i = 0; i < diagnosis.insufficient_data.size(); ++i) {
    if (i > 0) insufficient += ',';
    insufficient += '{';
    AppendClassFields(&insufficient, diagnosis.insufficient_data[i]);
    insufficient += '}';
  }
  insufficient += ']';
  TraceEvent event("mrc");
  event.Num("t", sim_->Now())
      .Uint("app", app)
      .Int("replica", replica_id)
      // Format compatibility: phase=mrc events predate the retirement
      // of the streaming estimator and still name the (only) mode.
      .Str("mode", "recompute");
  if (tier2 != nullptr) {
    // Second-tier state at diagnosis time; absent on tierless engines
    // so pre-tier traces replay unchanged.
    event.Uint("tier2_pages", tier2->capacity())
        .Uint("tier2_resident", tier2->resident_pages())
        .Num("tier2_read_us", tier2->config().read_us);
  }
  event.Uint("candidates", candidates)
      .Raw("suspects", profile_array(diagnosis.suspects))
      .Raw("cleared", profile_array(diagnosis.cleared))
      .Raw("insufficient", insufficient);
  trace_->Emit(event);
  scope_.mrc_emitted = true;
}

bool SelectiveRetuner::InWarmup(AppId app) const {
  auto it = last_topology_change_.find(app);
  if (it == last_topology_change_.end()) return false;
  return sim_->Now() - it->second <
         config_.warmup_intervals * config_.interval_seconds;
}

bool SelectiveRetuner::InPlacementCooldown(ClassKey key) const {
  auto it = last_placement_change_.find(key);
  if (it == last_placement_change_.end()) return false;
  return sim_->Now() - it->second <
         config_.placement_cooldown_intervals * config_.interval_seconds;
}

void SelectiveRetuner::NotePlacementChange(ClassKey key) {
  last_placement_change_[key] = sim_->Now();
}

void SelectiveRetuner::NoteTopologyChange(AppId app) {
  last_topology_change_[app] = sim_->Now();
}

void SelectiveRetuner::Tick() {
  const ScopedTimer timer(tick_us_);
  const double interval = config_.interval_seconds;
  migrations_this_interval_ = 0;
  PruneDeadAnalyzers();
  IntervalSample sample;
  sample.time = sim_->Now();

  // 1. Close the interval on every engine and server (order: replicas
  // in creation order for determinism). Every report travels publish ->
  // deliver -> collect, so the controller sees the channel's (possibly
  // stale) view.
  const std::vector<Replica*> replicas = resources_->AllReplicas();
  std::map<Replica*, Snapshot> snapshots;
  feeds_.clear();
  std::vector<int> live;
  live.reserve(replicas.size());
  for (Replica* r : replicas) live.push_back(r->id());
  channel_->Retain(live);
  for (Replica* r : replicas) {
    channel_->Publish(r->id(), r->engine().stats().EndInterval(interval),
                      interval);
  }
  for (Replica* r : replicas) {
    const StatsChannel::Feed feed = channel_->Collect(r->id());
    snapshots.emplace(r, *feed.snapshot);
    FeedState fs;
    fs.fresh = feed.fresh;
    fs.stale_intervals = feed.stale_intervals;
    fs.confidence = feed.confidence;
    feeds_[r->id()] = fs;
  }
  for (const auto& server : resources_->servers()) {
    ServerSample ss;
    ss.server_id = server->id();
    ss.cpu_utilization = server->CpuUtilization();
    ss.io_utilization = server->IoUtilization();
    sample.servers.push_back(ss);
    if (metrics_ != nullptr) {
      const std::string prefix =
          "server." + std::to_string(ss.server_id) + ".";
      metrics_->gauge(prefix + "cpu_utilization")->Set(ss.cpu_utilization);
      metrics_->gauge(prefix + "io_utilization")->Set(ss.io_utilization);
    }
  }
  if (metrics_ != nullptr) resources_->PublishMetrics();

  // 2. Close the interval on every application.
  std::map<Scheduler*, Scheduler::IntervalReport> reports;
  for (Scheduler* s : schedulers_) {
    const Scheduler::IntervalReport report = s->EndInterval(interval);
    reports.emplace(s, report);
    AppSample as;
    as.app = s->app().id;
    as.queries = report.queries;
    as.avg_latency = report.avg_latency;
    as.p95_latency = report.p95_latency;
    as.throughput = report.throughput;
    as.sla_met = report.sla_met;
    as.servers_used = resources_->ServersUsedBy(*s);
    sample.apps.push_back(as);
  }

  // 3. Stable intervals refresh signatures and seed MRC baselines.
  // Only fresh feeds qualify: a last-known-good snapshot re-recorded
  // as "stable" would silently launder stale numbers into the
  // baselines every missed interval.
  for (Scheduler* s : schedulers_) {
    const auto& report = reports.at(s);
    if (report.sla_met && report.queries > 0) {
      for (Replica* r : replicas) {
        if (!FeedFresh(r->id())) continue;
        AnalyzerFor(&r->engine())
            .RecordStableInterval(s->app().id, snapshots.at(r), sim_->Now());
      }
    }
  }

  // 4. Track replica-set changes (warm-up windows start whenever an
  // app's topology moved, including changes made outside this loop).
  for (Scheduler* s : schedulers_) {
    const AppId app = s->app().id;
    const size_t count = s->replicas().size();
    auto it = last_replica_count_.find(app);
    if (it == last_replica_count_.end()) {
      last_replica_count_[app] = count;
      if (count > 0) NoteTopologyChange(app);  // freshly seen, cold pools
    } else if (it->second != count) {
      it->second = count;
      NoteTopologyChange(app);
    }
  }

  // 5. Violations run the diagnosis cascade; clean intervals may
  // release over-provisioned capacity.
  for (Scheduler* s : schedulers_) {
    const auto& report = reports.at(s);
    const AppId app = s->app().id;
    // Sustained shedding outranks the SLA check: admission control
    // fast-fails enough load to keep the *served* latency inside the
    // SLA, so waiting for a latency violation would never provision.
    const uint64_t offered = report.queries + report.shed;
    const double shed_share =
        offered > 0 ? static_cast<double>(report.shed) / offered : 0.0;
    if (admission_ != nullptr && config_.enable_actions &&
        shed_share >= config_.overload_shed_share && !InWarmup(app)) {
      calm_streak_[app] = 0;
      ++violation_streak_[app];
      if (violations_ != nullptr) violations_->Increment();
      BeginViolationScope(s, report);
      Replica* fresh =
          resources_->ProvisionReplica(s, config_.replica_pool_pages);
      if (fresh != nullptr) {
        NoteTopologyChange(app);
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "overload: %.0f%% of offered load shed; provisioned "
                      "%s on %s (now %d servers)",
                      100 * shed_share, fresh->name().c_str(),
                      fresh->server().name().c_str(),
                      resources_->ServersUsedBy(*s));
        Log(ActionKind::kCpuProvision, app, buf);
      }
      EndViolationScope("overload_shed");
      continue;
    }
    if (report.queries > 0 && !report.sla_met) {
      calm_streak_[app] = 0;
      if (violations_ != nullptr) violations_->Increment();
      if (config_.enable_actions && s->replicas().empty()) {
        // Bootstrap: an application with no capacity at all.
        BeginViolationScope(s, report);
        TryCpuProvisioning(s);
        EndViolationScope("bootstrap");
        continue;
      }
      if (InWarmup(app)) {
        // Pools still filling; hold fire.
        BeginViolationScope(s, report);
        EndViolationScope("warmup");
        continue;
      }
      ++violation_streak_[app];
      BeginViolationScope(s, report);
      EndViolationScope(HandleViolation(s, report, snapshots));
    } else {
      violation_streak_[app] = 0;
      ++calm_streak_[app];
      MaybeRelease(s);
    }
  }

  for (const auto& server : resources_->servers()) {
    server->ResetUtilizationWindow();
  }
  samples_.push_back(std::move(sample));
}

const char* SelectiveRetuner::HandleViolation(
    Scheduler* scheduler, const Scheduler::IntervalReport& /*report*/,
    const std::map<Replica*, Snapshot>& snapshots) {
  const AppId app = scheduler->app().id;
  low_confidence_suppressed_ = false;
  if (!config_.enable_actions) {
    // Monitoring only: run the diagnosis for the record, change nothing.
    TryMemoryRetuning(scheduler, snapshots, /*act=*/false);
    return "monitoring";
  }
  if (!config_.enable_fine_grained) {
    if (violation_streak_[app] >= config_.coarse_fallback_after) {
      CoarseFallback(scheduler);
    }
    return "coarse_only";
  }
  if (TryCpuProvisioning(scheduler)) return "no_action";
  // Graceful degradation: with no per-class statistics for this app at
  // all (stats-collector dropout, or every serving replica gone), the
  // fine-grained cascade — and the coarse fallback it escalates to —
  // would be reasoning about nothing. Skip with a reason; the next
  // interval with data resumes the cascade.
  bool have_stats = false;
  for (Replica* r : scheduler->replicas()) {
    const auto it = snapshots.find(r);
    if (it == snapshots.end()) continue;
    for (const auto& [key, vec] : it->second) {
      if (AppOf(key) == app) {
        have_stats = true;
        break;
      }
    }
    if (have_stats) break;
  }
  if (!have_stats) {
    if (metrics_ != nullptr) {
      metrics_->counter("controller.skipped.no_stats")->Increment();
    }
    return "no_stats";
  }
  if (TryMemoryRetuning(scheduler, snapshots)) return "no_action";
  if (TryIoRetuning(scheduler, snapshots)) return "no_action";
  if (violation_streak_[app] >= config_.coarse_fallback_after) {
    CoarseFallback(scheduler);
  }
  return low_confidence_suppressed_ ? "low_confidence" : "no_action";
}

bool SelectiveRetuner::TryCpuProvisioning(Scheduler* scheduler) {
  // An application with no replicas at all is trivially saturated.
  bool saturated = scheduler->replicas().empty();
  for (Replica* r : scheduler->replicas()) {
    if (r->server().CpuUtilization() >= config_.cpu_saturation_threshold) {
      saturated = true;
      break;
    }
  }
  if (!saturated) return false;
  Replica* fresh =
      resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
  if (fresh == nullptr) return false;  // pool exhausted
  NoteTopologyChange(scheduler->app().id);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "CPU saturation: provisioned %s on %s (now %d servers)",
                fresh->name().c_str(), fresh->server().name().c_str(),
                resources_->ServersUsedBy(*scheduler));
  Log(ActionKind::kCpuProvision, scheduler->app().id, buf);
  return true;
}

bool SelectiveRetuner::TryMemoryRetuning(
    Scheduler* scheduler, const std::map<Replica*, Snapshot>& snapshots,
    bool act) {
  const AppId app = scheduler->app().id;
  bool acted = false;
  // Copy: dedications may mutate the replica list mid-loop.
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    auto snap_it = snapshots.find(r);
    if (snap_it == snapshots.end()) continue;
    const Snapshot& snap = snap_it->second;
    LogAnalyzer& analyzer = AnalyzerFor(&r->engine());
    const double confidence = FeedConfidence(r->id());
    const double fence_scale = channel_->FenceScale(confidence);

    // A replica whose engine never recorded a stable interval for this
    // application is still warming up after being provisioned; there is
    // no baseline to compare against, and flagging its classes as "new"
    // would be noise.
    bool has_history = false;
    for (ClassKey key : analyzer.stable_store().Keys()) {
      if (AppOf(key) == app) {
        has_history = true;
        break;
      }
    }
    if (!has_history) continue;

    // 4a. Outlier contexts over this app's classes on this engine.
    // Decayed confidence widens the fences: a snapshot that may be
    // stale must look a lot more anomalous before it names suspects.
    const OutlierReport outliers =
        analyzer.DetectOutliers(app, snap, fence_scale);
    if (spans_ != nullptr && scope_.active) {
      spans_->RecordPhase("impact", app, sim_->Now());
      spans_->RecordPhase("iqr", app, sim_->Now());
    }
    if (Tracing() && scope_.active) {
      TraceOutlierPhases(app, r->id(), outliers);
    }
    std::set<ClassKey> candidates = outliers.MemoryProblemContexts();
    for (ClassKey key : outliers.new_classes) candidates.insert(key);

    // 4b. No outliers: fall back to the top-k heavyweight classes in
    // memory metrics.
    if (candidates.empty()) {
      std::vector<std::pair<double, ClassKey>> heavy;
      for (const auto& [key, vec] : snap) {
        if (AppOf(key) != app) continue;
        heavy.emplace_back(At(vec, Metric::kBufferMisses), key);
      }
      std::sort(heavy.rbegin(), heavy.rend());
      for (size_t i = 0; i < std::min(config_.top_k_fallback, heavy.size());
           ++i) {
        if (heavy[i].first > 0) candidates.insert(heavy[i].second);
      }
    }

    // 4c. Newly added classes of *other* applications sharing this
    // engine are potential problem classes too (§5.4: the RUBiS classes
    // that just arrived in TPC-W's buffer pool).
    for (const auto& [key, vec] : snap) {
      if (AppOf(key) != app && analyzer.StableParamsOf(key) == nullptr) {
        candidates.insert(key);
      }
    }
    if (candidates.empty()) continue;

    // 4d. MRC recomputation narrows candidates to true suspects.
    LogAnalyzer::MemoryDiagnosis diagnosis =
        analyzer.DiagnoseMemory(candidates);
    if (spans_ != nullptr && scope_.active) {
      spans_->RecordPhase("mrc", app, sim_->Now());
    }
    if (Tracing() && scope_.active) {
      TraceMrcPhase(app, r->id(), candidates.size(), analyzer, diagnosis,
                    r->engine().tier2());
    }
    DiagnosisRecord record;
    record.time = sim_->Now();
    record.app = app;
    record.replica_id = r->id();
    record.outliers = outliers;
    record.memory = diagnosis;
    diagnoses_.push_back(std::move(record));
    if (!act) continue;
    if (!channel_->ConfidentToAct(confidence)) {
      // This replica's numbers are last-known-good, not measured:
      // record the diagnosis, take no quota/demote/migration off it.
      // Shed and CPU provisioning run on app-level latency and are
      // never gated here.
      low_confidence_suppressed_ = true;
      if (metrics_ != nullptr) {
        metrics_->counter("controller.suppressed.low_confidence")
            ->Increment();
      }
      continue;
    }
    if (diagnosis.suspects.empty()) continue;

    std::set<ClassKey> suspect_keys;
    for (const auto& p : diagnosis.suspects) suspect_keys.insert(p.key);
    const std::vector<ClassMemoryProfile> others =
        analyzer.StableProfilesExcept(suspect_keys);

    // 4e. Quota fit test and plan. Engines backed by a second tier
    // plan (dram, tier2) quota pairs against the blended latency model
    // — the demote rung; tierless engines keep the DRAM-only fit test.
    const TieredBufferPool* tier2 = r->engine().tier2();
    QuotaPlan plan;
    if (tier2 != nullptr) {
      TierCostModel cost;
      cost.t_ssd_us = tier2->config().read_us;
      cost.t_disk_us =
          r->engine().disk_model().random_read_seconds * 1e6;
      plan = planner_.PlanTiered(r->engine().pool().capacity(),
                                 tier2->capacity(), diagnosis.suspects,
                                 others, cost);
    } else {
      plan = planner_.Plan(r->engine().pool().capacity(),
                           diagnosis.suspects, others);
    }
    if (plan.placement_fits) {
      // The pool can hold everyone's working set, but a scan-style
      // suspect still pollutes it: prefetched extents evict other
      // classes' pages while contributing nothing to the scan's own
      // reuse (its MRC is flat). Contain such classes with a small
      // fixed quota — the paper's §5.3 action for the unindexed
      // BestSeller.
      for (const auto& suspect : diagnosis.suspects) {
        if (InWarmup(AppOf(suspect.key))) continue;
        auto vec_it = snap.find(suspect.key);
        if (vec_it == snap.end()) continue;
        if (At(vec_it->second, Metric::kReadAheads) < 10) continue;
        const uint64_t quota =
            std::max(suspect.params.acceptable_memory_pages,
                     planner_.min_quota_pages());
        if (r->engine().SetQuota(suspect.key, quota)) {
          analyzer.AdoptRecomputation(suspect.key);
          NoteTopologyChange(AppOf(suspect.key));
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "scan pollution: containment quota %llu pages for "
                        "%s on %s",
                        static_cast<unsigned long long>(quota),
                        ClassLabel(suspect.key).c_str(), r->name().c_str());
          Log(ActionKind::kQuotaEnforced, AppOf(suspect.key), buf);
          acted = true;
        }
      }
      continue;
    }
    // Even when the plan is flagged infeasible (this engine cannot
    // satisfy everyone no matter what), its reschedules are still the
    // right first step; the streak-based coarse fallback catches
    // whatever remains.

    // One plan is one coherent decision: snapshot the warmup guard
    // before applying it, so enforcing the first class's quota (which
    // starts the owner app's warmup) cannot block the rest of the same
    // plan — notably a demote paired behind another class's quota.
    std::map<AppId, bool> warm_before;
    for (const auto& [key, pages] : plan.quotas) {
      if (!warm_before.count(AppOf(key))) {
        warm_before[AppOf(key)] = InWarmup(AppOf(key));
      }
    }
    for (const auto& [key, pages] : plan.quotas) {
      // Cross-application actions respect the owner app's cooldown.
      if (warm_before[AppOf(key)]) continue;
      if (!r->engine().SetQuota(key, pages)) continue;
      analyzer.AdoptRecomputation(key);
      NoteTopologyChange(AppOf(key));
      char buf[160];
      // Demote rung: the plan pairs the DRAM cap with a tier-2 quota
      // for the working-set overflow — cheaper than migrating the
      // class off the engine. A tier quota the pool cannot grant
      // degrades to the plain DRAM quota action.
      const auto tier_it = plan.tier2_quotas.find(key);
      if (tier_it != plan.tier2_quotas.end() &&
          r->engine().SetTierQuota(key, tier_it->second)) {
        std::snprintf(buf, sizeof(buf),
                      "memory interference: demoted %s to %llu dram + "
                      "%llu tier2 pages on %s",
                      ClassLabel(key).c_str(),
                      static_cast<unsigned long long>(pages),
                      static_cast<unsigned long long>(tier_it->second),
                      r->name().c_str());
        Log(ActionKind::kDemote, AppOf(key), buf);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "memory interference: quota %llu pages for %s on %s",
                      static_cast<unsigned long long>(pages),
                      ClassLabel(key).c_str(), r->name().c_str());
        Log(ActionKind::kQuotaEnforced, AppOf(key), buf);
      }
      acted = true;
    }
    for (ClassKey key : plan.reschedule) {
      if (InPlacementCooldown(key) || InWarmup(AppOf(key))) continue;
      const auto profile_it =
          std::find_if(diagnosis.suspects.begin(), diagnosis.suspects.end(),
                       [key](const ClassMemoryProfile& p) {
                         return p.key == key;
                       });
      if (profile_it == diagnosis.suspects.end()) continue;
      Scheduler* owner = nullptr;
      for (Scheduler* s : schedulers_) {
        if (s->app().id == AppOf(key)) owner = s;
      }
      if (owner == nullptr) continue;
      Replica* target = FindPlacementTarget(owner, r, *profile_it);
      if (target == nullptr) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "memory interference: rescheduled %s from %s to %s",
                    ClassLabel(key).c_str(), r->name().c_str(),
                    target->name().c_str());
      if (StartMigration(owner, r, target, key,
                         ActionKind::kClassRescheduled, buf,
                         /*adopt_recomputation=*/true, *profile_it)) {
        acted = true;
      }
    }
  }
  return acted;
}

bool SelectiveRetuner::TryIoRetuning(
    Scheduler* scheduler, const std::map<Replica*, Snapshot>& snapshots) {
  bool acted = false;
  std::set<const PhysicalServer*> visited;
  const std::vector<Replica*> app_replicas = scheduler->replicas();
  for (Replica* r : app_replicas) {
    PhysicalServer* server = &r->server();
    if (!visited.insert(server).second) continue;
    const double io_util = server->IoUtilization();
    if (io_util < config_.io_saturation_threshold) continue;

    // Estimate each class's utilization contribution from its share of
    // I/O block requests on this server (all engines, all apps).
    std::map<ClassKey, double> rates;
    double total_requests = 0;
    for (Replica* rr : resources_->ReplicasOn(server)) {
      auto it = snapshots.find(rr);
      if (it == snapshots.end()) continue;
      for (const auto& [key, vec] : it->second) {
        const double requests = At(vec, Metric::kIoRequests);
        rates[key] += requests;
        total_requests += requests;
      }
    }
    if (total_requests <= 0) continue;
    double top_rate = 0;
    int significant_classes = 0;
    for (auto& [key, value] : rates) {
      value *= io_util / total_requests;
      top_rate = std::max(top_rate, value);
      if (value > 0.10 * io_util) ++significant_classes;
    }

    // Eviction protects the *other* contexts on the server. If only
    // one class matters here (e.g. an already-isolated heavy class
    // saturating its own disk), moving it helps nobody.
    if (significant_classes < 2) continue;

    // Eviction only helps when the I/O is skewed toward a culprit
    // class. A uniformly loaded channel is a capacity shortage: give
    // the application another replica instead.
    if (top_rate / io_util < config_.io_skew_share) {
      Replica* fresh =
          resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
      if (fresh == nullptr) continue;
      NoteTopologyChange(scheduler->app().id);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "I/O saturation on %s (unskewed): provisioned %s on %s",
                    server->name().c_str(), fresh->name().c_str(),
                    fresh->server().name().c_str());
      Log(ActionKind::kIoProvision, scheduler->app().id, buf);
      acted = true;
      continue;
    }

    // Skewed: move the heaviest movable class off this server (one per
    // server per interval; the next interval re-evaluates).
    const std::vector<ClassKey> evict =
        PlanIoEviction(rates, io_util, config_.io_target_utilization);
    for (ClassKey key : evict) {
      if (InPlacementCooldown(key) || InWarmup(AppOf(key))) continue;
      Scheduler* owner = nullptr;
      for (Scheduler* s : schedulers_) {
        if (s->app().id == AppOf(key)) owner = s;
      }
      if (owner == nullptr) continue;
      // The replica on this server currently running the class.
      Replica* source = nullptr;
      for (Replica* rr : resources_->ReplicasOn(server)) {
        auto it = snapshots.find(rr);
        if (it != snapshots.end() && it->second.contains(key)) source = rr;
      }
      if (source == nullptr) continue;
      if (!channel_->ConfidentToAct(FeedConfidence(source->id()))) {
        // Evicting by per-class I/O shares computed from stale stats
        // moves the wrong class; wait for the feed to recover.
        low_confidence_suppressed_ = true;
        if (metrics_ != nullptr) {
          metrics_->counter("controller.suppressed.low_confidence")
              ->Increment();
        }
        continue;
      }
      ClassMemoryProfile incoming;
      incoming.key = key;
      if (const MrcParameters* stable =
              AnalyzerFor(&source->engine()).StableParamsOf(key)) {
        incoming.params = *stable;
      }
      Replica* target = FindPlacementTarget(owner, source, incoming);
      if (target == nullptr || &target->server() == server) continue;
      // Moving the class only helps if the destination channel has
      // headroom; shuffling between two saturated disks is thrash.
      if (target->server().IoUtilization() >=
          config_.io_saturation_threshold) {
        continue;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "I/O interference on %s: moved %s to %s",
                    server->name().c_str(), ClassLabel(key).c_str(),
                    target->name().c_str());
      if (!StartMigration(owner, source, target, key,
                          ActionKind::kIoEviction, buf,
                          /*adopt_recomputation=*/false, incoming)) {
        continue;
      }
      acted = true;
      break;  // one eviction per server per interval
    }
  }
  return acted;
}

Replica* SelectiveRetuner::FindPlacementTarget(
    Scheduler* scheduler, Replica* avoid, const ClassMemoryProfile& incoming) {
  for (Replica* candidate : scheduler->replicas()) {
    if (candidate == avoid) continue;
    if (avoid != nullptr && &candidate->server() == &avoid->server()) continue;
    if (admission_ != nullptr && admission_->BreakerOpen(candidate->id())) {
      // A replica already tripping circuit breakers is the last place
      // to migrate more load into.
      if (metrics_ != nullptr) {
        metrics_->counter("controller.migration.breaker_suppressed")
            ->Increment();
      }
      continue;
    }
    LogAnalyzer& analyzer = AnalyzerFor(&candidate->engine());
    const std::vector<ClassMemoryProfile> existing =
        analyzer.StableProfilesExcept({});
    if (QuotaPlanner::FitsOn(candidate->engine().pool().capacity(), incoming,
                             existing)) {
      return candidate;
    }
  }
  return resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
}

bool SelectiveRetuner::StartMigration(Scheduler* owner, Replica* source,
                                      Replica* target, ClassKey key,
                                      ActionKind kind, std::string description,
                                      bool adopt_recomputation,
                                      const ClassMemoryProfile& profile) {
  if (migrating_.contains(key)) return false;  // one in flight per class
  if (config_.max_migrations_per_interval > 0 &&
      migrations_this_interval_ >= config_.max_migrations_per_interval) {
    if (metrics_ != nullptr) {
      metrics_->counter("controller.migration.budget_deferred")->Increment();
    }
    return false;
  }
  ++migrations_this_interval_;
  ++migration_stats_.started;
  migrating_.insert(key);
  PendingMigration m;
  m.key = key;
  m.app = owner->app().id;
  m.source_id = source != nullptr ? source->id() : -1;
  m.target_id = target != nullptr ? target->id() : -1;
  m.kind = kind;
  m.description = std::move(description);
  m.adopt_recomputation = adopt_recomputation;
  m.profile = profile;
  m.started = sim_->Now();
  AttemptMigration(std::move(m));
  return true;
}

void SelectiveRetuner::AttemptMigration(PendingMigration m) {
  ++m.attempt;
  migration_stats_.max_attempts_observed =
      std::max(migration_stats_.max_attempts_observed, m.attempt);
  if (m.attempt > 1 + config_.migration_max_retries) {
    AbandonMigration(m, "retry_budget");
    return;
  }
  if (sim_->Now() - m.started > config_.migration_timeout_seconds) {
    AbandonMigration(m, "timeout");
    return;
  }
  MigrationOutcome outcome;
  if (config_.migration_interceptor) {
    outcome = config_.migration_interceptor(m.key, m.attempt);
  }
  if (outcome.fail) {
    ++migration_stats_.failed_attempts;
    if (metrics_ != nullptr) {
      metrics_->counter("controller.migration.retries")->Increment();
    }
    const double backoff = config_.migration_retry_backoff_seconds *
                           std::ldexp(1.0, m.attempt - 1);
    const uint64_t epoch = epoch_;
    sim_->ScheduleAfter(backoff, [this, epoch, m = std::move(m)] {
      // A retry armed before a controller crash must not fire into the
      // restarted controller: the checkpoint already converted the
      // migration into a placement cooldown.
      if (epoch != epoch_) return;
      AttemptMigration(m);
    });
    return;
  }
  if (outcome.delay_seconds > 0) {
    ++migration_stats_.delayed;
    if (metrics_ != nullptr) {
      metrics_->counter("controller.migration.delayed")->Increment();
    }
    const uint64_t epoch = epoch_;
    sim_->ScheduleAfter(
        outcome.delay_seconds, [this, epoch, m = std::move(m)] {
          if (epoch != epoch_) return;
          if (sim_->Now() - m.started > config_.migration_timeout_seconds) {
            AbandonMigration(m, "timeout");
          } else if (!ApplyMigration(m)) {
            AbandonMigration(m, "target_lost");
          }
        });
    return;
  }
  if (!ApplyMigration(m)) AbandonMigration(m, "target_lost");
}

bool SelectiveRetuner::ApplyMigration(const PendingMigration& m) {
  Scheduler* owner = nullptr;
  for (Scheduler* s : schedulers_) {
    if (s->app().id == m.app) owner = s;
  }
  if (owner == nullptr) return false;
  Replica* source = resources_->FindReplica(m.source_id);
  Replica* target = resources_->FindReplica(m.target_id);
  if (target == nullptr) {
    // The chosen destination died while the migration was in flight;
    // any valid placement still honors the decision.
    target = FindPlacementTarget(owner, source, m.profile);
    if (target == nullptr) return false;
  }
  owner->DedicateReplica(ClassOf(m.key), target);
  if (source != nullptr) {
    source->engine().DropQuota(m.key);
    if (m.adopt_recomputation) {
      AnalyzerFor(&source->engine()).AdoptRecomputation(m.key);
    }
  }
  migrating_.erase(m.key);
  ++migration_stats_.applied;
  NotePlacementChange(m.key);
  NoteTopologyChange(owner->app().id);
  Log(m.kind, AppOf(m.key), m.description);
  return true;
}

void SelectiveRetuner::AbandonMigration(const PendingMigration& m,
                                        const char* why) {
  migrating_.erase(m.key);
  ++migration_stats_.abandoned;
  // Cooldown: the class that just failed to move must not be re-issued
  // by the very next interval — that is exactly re-placement flapping.
  NotePlacementChange(m.key);
  if (metrics_ != nullptr) {
    metrics_->counter("controller.migration.abandoned")->Increment();
  }
  if (Tracing()) {
    TraceEvent event("migration");
    event.Num("t", sim_->Now())
        .Uint("app", m.app)
        .Uint("cls", ClassOf(m.key))
        .Str("outcome", "abandoned")
        .Str("why", why)
        .Int("attempts", m.attempt);
    trace_->Emit(event);
  }
}

void SelectiveRetuner::PruneDeadAnalyzers() {
  std::set<const DatabaseEngine*> live;
  for (Replica* r : resources_->AllReplicas()) live.insert(&r->engine());
  for (auto it = analyzers_.begin(); it != analyzers_.end();) {
    if (live.contains(it->first)) {
      ++it;
    } else {
      it = analyzers_.erase(it);
    }
  }
}

void SelectiveRetuner::CoarseFallback(Scheduler* scheduler) {
  const AppId app = scheduler->app().id;
  // Coarse isolation is expensive; do not repeat it for the same app in
  // quick succession (a chronically unattainable SLA would otherwise
  // trigger it every few intervals).
  const SimTime now = sim_->Now();
  auto last = last_coarse_fallback_.find(app);
  if (last != last_coarse_fallback_.end() &&
      now - last->second <
          3 * config_.coarse_fallback_after * config_.interval_seconds) {
    return;
  }
  Replica* fresh =
      resources_->ProvisionReplica(scheduler, config_.replica_pool_pages);
  if (fresh == nullptr) return;
  // Isolate: drop replicas shared with other applications (either the
  // same engine serves several apps, or the server hosts other apps'
  // replicas).
  const std::vector<Replica*> current = scheduler->replicas();
  for (Replica* r : current) {
    if (r == fresh) continue;
    bool shared = false;
    for (Scheduler* other : schedulers_) {
      if (other == scheduler) continue;
      const auto& others = other->replicas();
      if (std::find(others.begin(), others.end(), r) != others.end()) {
        shared = true;
      }
      for (Replica* rr : resources_->ReplicasOn(&r->server())) {
        if (rr == r) continue;
        if (std::find(others.begin(), others.end(), rr) != others.end()) {
          shared = true;
        }
      }
    }
    if (shared) scheduler->RemoveReplica(r);
  }
  NoteTopologyChange(app);
  last_coarse_fallback_[app] = now;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "coarse fallback: isolated app %u onto %s (%s)", app,
                fresh->name().c_str(), fresh->server().name().c_str());
  Log(ActionKind::kCoarseFallback, app, buf);
  violation_streak_[app] = 0;
}

void SelectiveRetuner::MaybeRelease(Scheduler* scheduler) {
  if (!config_.enable_actions) return;
  const AppId app = scheduler->app().id;
  if (calm_streak_[app] < config_.release_after) return;
  const std::vector<Replica*> default_set = scheduler->DefaultSet();
  if (default_set.size() <= 1) return;

  double util_sum = 0;
  int servers = 0;
  std::set<const PhysicalServer*> seen;
  for (Replica* r : scheduler->replicas()) {
    if (seen.insert(&r->server()).second) {
      util_sum += std::max(r->server().CpuUtilization(),
                           r->server().IoUtilization());
      ++servers;
    }
  }
  if (servers == 0) return;
  if (util_sum / servers >= config_.cpu_release_threshold) return;

  // Release a default-set replica used only by this application.
  Replica* victim = nullptr;
  for (Replica* r : default_set) {
    bool shared = false;
    for (Scheduler* other : schedulers_) {
      if (other == scheduler) continue;
      const auto& others = other->replicas();
      if (std::find(others.begin(), others.end(), r) != others.end()) {
        shared = true;
      }
    }
    if (shared) continue;
    if (victim == nullptr || r->inflight() < victim->inflight()) victim = r;
  }
  if (victim == nullptr) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "low load: released %s (now %d servers)",
                victim->name().c_str(),
                resources_->ServersUsedBy(*scheduler) - 1);
  Log(ActionKind::kCpuRelease, app, buf);
  // The engine dies with the replica; drop its analyzer so a future
  // engine reusing the address cannot inherit stale state.
  analyzers_.erase(&victim->engine());
  resources_->Decommission(scheduler, victim);
  calm_streak_[app] = 0;
}

void SelectiveRetuner::SerializeControlState(std::string* out) const {
  auto put_time = [out](SimTime t) { PutFixed64(out, DoubleToBits(t)); };
  PutVarint64(out, violation_streak_.size());
  for (const auto& [app, streak] : violation_streak_) {
    PutVarint64(out, app);
    PutVarint64(out, ZigZagEncode(streak));
  }
  PutVarint64(out, calm_streak_.size());
  for (const auto& [app, streak] : calm_streak_) {
    PutVarint64(out, app);
    PutVarint64(out, ZigZagEncode(streak));
  }
  PutVarint64(out, last_topology_change_.size());
  for (const auto& [app, t] : last_topology_change_) {
    PutVarint64(out, app);
    put_time(t);
  }
  PutVarint64(out, last_replica_count_.size());
  for (const auto& [app, count] : last_replica_count_) {
    PutVarint64(out, app);
    PutVarint64(out, count);
  }
  PutVarint64(out, last_placement_change_.size());
  for (const auto& [key, t] : last_placement_change_) {
    PutVarint64(out, key);
    put_time(t);
  }
  PutVarint64(out, last_coarse_fallback_.size());
  for (const auto& [app, t] : last_coarse_fallback_) {
    PutVarint64(out, app);
    put_time(t);
  }
  PutVarint64(out, migrating_.size());
  for (ClassKey key : migrating_) PutVarint64(out, key);

  // Per-replica analyzer state, keyed by replica id: the engines
  // outlive a controller crash but the analyzer map (keyed by engine
  // pointer) does not, so the blob re-binds by id at restore time.
  std::vector<std::pair<int, const LogAnalyzer*>> by_replica;
  for (Replica* r : resources_->AllReplicas()) {
    const auto it = analyzers_.find(&r->engine());
    if (it != analyzers_.end()) by_replica.emplace_back(r->id(), it->second.get());
  }
  PutVarint64(out, by_replica.size());
  for (const auto& [replica_id, analyzer] : by_replica) {
    PutVarint64(out, ZigZagEncode(replica_id));
    const auto& signatures = analyzer->stable_store().Entries();
    PutVarint64(out, signatures.size());
    for (const auto& [key, sig] : signatures) {
      PutVarint64(out, key);
      for (double v : sig.averages) PutFixed64(out, DoubleToBits(v));
      put_time(sig.recorded_at);
      PutVarint64(out, sig.intervals_observed);
    }
    // Stable MRC baselines travel as their raw sampled curves; the
    // restored tracker re-derives parameters from the curve, so the
    // post-restore diagnosis is bit-identical to the pre-crash one.
    struct StableCurve {
      ClassKey key;
      const MissRatioCurve* curve;
      size_t trace_length;
    };
    std::vector<StableCurve> curves;
    analyzer->ForEachStableTracker(
        [&curves](ClassKey key, const MissRatioCurve& curve,
                  size_t trace_length) {
          curves.push_back({key, &curve, trace_length});
        });
    PutVarint64(out, curves.size());
    for (const StableCurve& sc : curves) {
      PutVarint64(out, sc.key);
      PutVarint64(out, sc.trace_length);
      PutVarint64(out, sc.curve->total_accesses());
      const std::vector<double>& raw = sc.curve->raw_miss_ratios();
      PutVarint64(out, raw.size());
      for (double v : raw) PutFixed64(out, DoubleToBits(v));
    }
  }
}

bool SelectiveRetuner::RestoreControlState(const uint8_t* p,
                                           const uint8_t* limit) {
  auto get_u64 = [&p, limit](uint64_t* v) {
    const size_t n = GetVarint64(p, limit, v);
    if (n == 0) return false;
    p += n;
    return true;
  };
  auto get_i64 = [&get_u64](int64_t* v) {
    uint64_t raw = 0;
    if (!get_u64(&raw)) return false;
    *v = ZigZagDecode(raw);
    return true;
  };
  auto get_f64 = [&p, limit](double* v) {
    uint64_t bits = 0;
    if (!GetFixed64(p, limit, &bits)) return false;
    p += 8;
    *v = BitsToDouble(bits);
    return true;
  };
  // Decode everything into locals first: a truncated blob must not
  // leave the controller half-restored.
  std::map<AppId, int> violation, calm;
  std::map<AppId, SimTime> topology, coarse;
  std::map<AppId, size_t> replica_counts;
  std::map<ClassKey, SimTime> placement;
  std::vector<ClassKey> in_flight;
  uint64_t n = 0;
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t app = 0;
    int64_t streak = 0;
    if (!get_u64(&app) || !get_i64(&streak)) return false;
    violation[static_cast<AppId>(app)] = static_cast<int>(streak);
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t app = 0;
    int64_t streak = 0;
    if (!get_u64(&app) || !get_i64(&streak)) return false;
    calm[static_cast<AppId>(app)] = static_cast<int>(streak);
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t app = 0;
    double t = 0;
    if (!get_u64(&app) || !get_f64(&t)) return false;
    topology[static_cast<AppId>(app)] = t;
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t app = 0, count = 0;
    if (!get_u64(&app) || !get_u64(&count)) return false;
    replica_counts[static_cast<AppId>(app)] = static_cast<size_t>(count);
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    double t = 0;
    if (!get_u64(&key) || !get_f64(&t)) return false;
    placement[key] = t;
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t app = 0;
    double t = 0;
    if (!get_u64(&app) || !get_f64(&t)) return false;
    coarse[static_cast<AppId>(app)] = t;
  }
  if (!get_u64(&n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    if (!get_u64(&key)) return false;
    in_flight.push_back(key);
  }

  struct RestoredSignature {
    ClassKey key;
    StableStateSignature sig;
  };
  struct RestoredCurve {
    ClassKey key;
    std::vector<double> raw;
    uint64_t total_accesses;
    size_t trace_length;
  };
  struct RestoredAnalyzer {
    int replica_id;
    std::vector<RestoredSignature> signatures;
    std::vector<RestoredCurve> curves;
  };
  std::vector<RestoredAnalyzer> restored;
  uint64_t analyzers = 0;
  if (!get_u64(&analyzers)) return false;
  for (uint64_t a = 0; a < analyzers; ++a) {
    RestoredAnalyzer ra;
    int64_t replica_id = 0;
    if (!get_i64(&replica_id)) return false;
    ra.replica_id = static_cast<int>(replica_id);
    uint64_t sigs = 0;
    if (!get_u64(&sigs)) return false;
    for (uint64_t i = 0; i < sigs; ++i) {
      RestoredSignature rs;
      uint64_t key = 0;
      if (!get_u64(&key)) return false;
      rs.key = key;
      for (double& v : rs.sig.averages) {
        if (!get_f64(&v)) return false;
      }
      uint64_t observed = 0;
      if (!get_f64(&rs.sig.recorded_at) || !get_u64(&observed)) return false;
      rs.sig.intervals_observed = observed;
      ra.signatures.push_back(std::move(rs));
    }
    uint64_t curves = 0;
    if (!get_u64(&curves)) return false;
    for (uint64_t i = 0; i < curves; ++i) {
      RestoredCurve rc;
      uint64_t key = 0, trace_length = 0, total = 0, samples = 0;
      if (!get_u64(&key) || !get_u64(&trace_length) || !get_u64(&total) ||
          !get_u64(&samples)) {
        return false;
      }
      rc.key = key;
      rc.trace_length = static_cast<size_t>(trace_length);
      rc.total_accesses = total;
      rc.raw.resize(static_cast<size_t>(samples));
      for (double& v : rc.raw) {
        if (!get_f64(&v)) return false;
      }
      ra.curves.push_back(std::move(rc));
    }
    restored.push_back(std::move(ra));
  }

  // Commit.
  violation_streak_ = std::move(violation);
  calm_streak_ = std::move(calm);
  last_topology_change_ = std::move(topology);
  last_replica_count_ = std::move(replica_counts);
  last_placement_change_ = std::move(placement);
  last_coarse_fallback_ = std::move(coarse);
  // Migrations in flight at checkpoint time died with the controller's
  // callbacks. Restoring them as placement cooldowns (not as pending
  // migrations) guarantees the restarted controller neither duplicates
  // the move nor re-issues it inside the flap window; the next
  // violating interval re-diagnoses from live data.
  for (ClassKey key : in_flight) {
    last_placement_change_[key] = sim_->Now();
  }
  for (const RestoredAnalyzer& ra : restored) {
    Replica* r = resources_->FindReplica(ra.replica_id);
    if (r == nullptr) continue;  // the replica died while we were down
    LogAnalyzer& analyzer = AnalyzerFor(&r->engine());
    for (const RestoredSignature& rs : ra.signatures) {
      analyzer.stable_store().Restore(rs.key, rs.sig);
    }
    for (const RestoredCurve& rc : ra.curves) {
      analyzer.RestoreStableTracker(
          rc.key, MissRatioCurve::FromRaw(rc.raw, rc.total_accesses),
          rc.trace_length);
    }
  }
  return true;
}

}  // namespace fglb

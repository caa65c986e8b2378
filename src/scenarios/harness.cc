#include "scenarios/harness.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>
#include <vector>

#include "core/controller_checkpoint.h"

namespace fglb {

namespace {

// Applies fault events to the live cluster. Crash = detach from every
// scheduler + destroy (in-flight queries complete first, bounded by the
// resource manager's drain deadline); restart = re-provision capacity
// for the applications the dead replica served.
class HarnessFaultBackend : public FaultBackend {
 public:
  explicit HarnessFaultBackend(ClusterHarness* harness) : harness_(harness) {}

  bool CrashReplica(int replica_id) override {
    Replica* replica = harness_->resources().FindReplica(replica_id);
    if (replica == nullptr) return false;
    CrashRecord record;
    record.pool_pages = replica->engine().pool().capacity();
    for (const auto& scheduler : harness_->schedulers()) {
      const auto& set = scheduler->replicas();
      if (std::find(set.begin(), set.end(), replica) != set.end()) {
        record.apps.push_back(scheduler.get());
        scheduler->RemoveReplica(replica);
      }
    }
    crashes_[replica_id] = std::move(record);
    harness_->resources().DestroyReplica(replica);
    return true;
  }

  bool RestartReplica(int crashed_replica_id) override {
    auto it = crashes_.find(crashed_replica_id);
    if (it == crashes_.end()) return false;
    bool provisioned = false;
    for (Scheduler* scheduler : it->second.apps) {
      if (harness_->resources().ProvisionReplica(
              scheduler, it->second.pool_pages) != nullptr) {
        provisioned = true;
      }
    }
    crashes_.erase(it);
    return provisioned;
  }

  bool SetDiskLatencyFactor(int server_id, double factor) override {
    const auto& servers = harness_->resources().servers();
    if (server_id < 0 || server_id >= static_cast<int>(servers.size())) {
      return false;
    }
    servers[static_cast<size_t>(server_id)]->set_disk_latency_multiplier(
        factor);
    return true;
  }

  bool SetReplicaSlowdown(int replica_id, double factor) override {
    Replica* replica = harness_->resources().FindReplica(replica_id);
    if (replica == nullptr) return false;
    replica->set_slowdown(factor);
    return true;
  }

  bool SetStatsDropout(int replica_id, int mode) override {
    Replica* replica = harness_->resources().FindReplica(replica_id);
    if (replica == nullptr) return false;
    replica->engine().set_stats_dropout(static_cast<StatsDropout>(mode));
    return true;
  }

  bool SetTierFault(int replica_id, int mode, double factor) override {
    Replica* replica = harness_->resources().FindReplica(replica_id);
    if (replica == nullptr || replica->engine().tier2() == nullptr) {
      return false;
    }
    if (mode == kTierFail) {
      replica->engine().SetTierFailed(true);
    } else if (mode == kTierDegrade) {
      replica->engine().SetTierLatencyFactor(factor);
    } else {
      replica->engine().SetTierFailed(false);
      replica->engine().SetTierLatencyFactor(1.0);
    }
    return true;
  }

  bool CrashController() override { return harness_->CrashController(); }
  bool RestartController() override { return harness_->RestartController(); }

 private:
  struct CrashRecord {
    uint64_t pool_pages = 0;
    std::vector<Scheduler*> apps;  // schedulers the replica served
  };

  ClusterHarness* harness_;
  std::map<int, CrashRecord> crashes_;
};

}  // namespace

ClusterHarness::ClusterHarness(SelectiveRetuner::Config config,
                               bool observability,
                               Simulator::QueueKind queue_kind)
    : observability_(observability),
      sim_(queue_kind),
      stats_channel_(&sim_, StatsChannelConfig{}),
      resources_(&sim_),
      retuner_(&sim_, &resources_, &stats_channel_,
               WithObservability(std::move(config))) {
  if (observability_) {
    stats_channel_.BindObservability(&metrics_, &trace_);
    resources_.set_metrics(&metrics_);
    resources_.set_trace(&trace_);
    sim_.BindMetrics(&metrics_);
  }
}

SelectiveRetuner::Config ClusterHarness::WithObservability(
    SelectiveRetuner::Config config) {
  if (!observability_) return config;
  if (config.metrics == nullptr) config.metrics = &metrics_;
  if (config.trace == nullptr) config.trace = &trace_;
  return config;
}

void ClusterHarness::StartMetricsSampler(double period_seconds) {
  if (sampler_started_ || !observability_) return;
  sampler_started_ = true;
  const double period = period_seconds > 0
                            ? period_seconds
                            : retuner_.config().interval_seconds;
  struct Sampler {
    static void Arm(ClusterHarness* self, double period) {
      self->sim_.ScheduleAfter(period, [self, period] {
        self->resources_.PublishMetrics();
        Arm(self, period);
      });
    }
  };
  Sampler::Arm(this, period);
}

void ClusterHarness::AddServers(int count,
                                const PhysicalServer::Options& options) {
  for (int i = 0; i < count; ++i) resources_.AddServer(options);
}

Scheduler* ClusterHarness::AddApplication(ApplicationSpec spec) {
  specs_.push_back(std::make_unique<ApplicationSpec>(std::move(spec)));
  schedulers_.push_back(
      std::make_unique<Scheduler>(&sim_, specs_.back().get()));
  retuner_.RegisterApplication(schedulers_.back().get());
  if (arrival_recorder_ != nullptr) {
    schedulers_.back()->SetArrivalRecorder(arrival_recorder_);
  }
  if (span_tracer_ != nullptr) {
    schedulers_.back()->SetSpanTracer(span_tracer_.get());
  }
  if (admission_ != nullptr) {
    admission_->RegisterApp(specs_.back()->id,
                            specs_.back()->sla_latency_seconds);
    schedulers_.back()->SetAdmission(admission_.get());
    const double timeout = admission_->config().timeout_factor *
                           specs_.back()->sla_latency_seconds;
    if (timeout > resources_.execution_timeout_seconds()) {
      resources_.set_execution_timeout_seconds(timeout);
    }
  }
  return schedulers_.back().get();
}

AdmissionController* ClusterHarness::EnableAdmission(
    const AdmissionConfig& config) {
  if (admission_ != nullptr) return admission_.get();
  admission_ = std::make_unique<AdmissionController>(&sim_, config);
  if (observability_) {
    admission_->BindObservability(&metrics_, &trace_);
  }
  double max_sla = 0;
  for (const auto& spec : specs_) {
    admission_->RegisterApp(spec->id, spec->sla_latency_seconds);
    max_sla = std::max(max_sla, spec->sla_latency_seconds);
  }
  for (auto& scheduler : schedulers_) {
    scheduler->SetAdmission(admission_.get());
  }
  retuner_.set_admission(admission_.get());
  // Engine-side timeout accounting mirrors the breaker's failure
  // definition for the slowest-SLA application.
  if (max_sla > 0) {
    resources_.set_execution_timeout_seconds(config.timeout_factor * max_sla);
  }
  return admission_.get();
}

SpanTracer* ClusterHarness::EnableSpanTracing(const SpanConfig& config) {
  if (span_tracer_ != nullptr) return span_tracer_.get();
  span_tracer_ = std::make_unique<SpanTracer>(config);
  if (observability_) span_tracer_->BindMetrics(&metrics_);
  for (auto& scheduler : schedulers_) {
    scheduler->SetSpanTracer(span_tracer_.get());
  }
  retuner_.set_span_tracer(span_tracer_.get());
  return span_tracer_.get();
}

void ClusterHarness::AttachRecorders(ArrivalRecorder* arrivals,
                                     ExecutionRecorder* executions) {
  arrival_recorder_ = arrivals;
  for (auto& scheduler : schedulers_) {
    scheduler->SetArrivalRecorder(arrivals);
  }
  if (executions != nullptr) {
    resources_.set_replica_observer([executions](Replica* replica) {
      replica->engine().SetExecutionRecorder(executions, replica->id());
    });
  } else {
    resources_.set_replica_observer({});
  }
}

ClientEmulator* ClusterHarness::AddClients(Scheduler* scheduler,
                                           std::unique_ptr<LoadFunction> load,
                                           uint64_t seed,
                                           ClientEmulator::Options options) {
  assert(scheduler != nullptr);
  loads_.push_back(std::move(load));
  emulators_.push_back(std::make_unique<ClientEmulator>(
      &sim_, &scheduler->app(), scheduler, loads_.back().get(), seed,
      options));
  if (started_) emulators_.back()->Start();
  return emulators_.back().get();
}

ClientEmulator* ClusterHarness::AddConstantClients(
    Scheduler* scheduler, double clients, uint64_t seed,
    ClientEmulator::Options options) {
  return AddClients(scheduler, std::make_unique<ConstantLoad>(clients), seed,
                    options);
}

ApplicationSpec* ClusterHarness::mutable_app(Scheduler* scheduler) {
  for (auto& spec : specs_) {
    if (spec.get() == &scheduler->app()) return spec.get();
  }
  return nullptr;
}

FaultInjector* ClusterHarness::InjectFaults(FaultSpec spec, uint64_t seed) {
  if (fault_injector_ != nullptr) return fault_injector_.get();
  fault_backend_ = std::make_unique<HarnessFaultBackend>(this);
  fault_injector_ = std::make_unique<FaultInjector>(
      &sim_, fault_backend_.get(), std::move(spec), seed);
  if (observability_) {
    fault_injector_->BindObservability(&metrics_, &trace_);
  }
  retuner_.set_migration_interceptor(
      [injector = fault_injector_.get()](ClassKey key, int attempt) {
        const FaultInjector::MigrationDecision d =
            injector->OnMigrationAttempt(key, attempt);
        return MigrationOutcome{d.fail, d.delay_seconds};
      });
  stats_channel_.set_net_hook(
      [injector = fault_injector_.get()](int replica_id, uint64_t seq) {
        return injector->OnStatsReport(replica_id, seq);
      });
  if (started_) fault_injector_->Arm();
  return fault_injector_.get();
}

void ClusterHarness::EnableCheckpointing(double interval_seconds) {
  if (checkpointing_) return;
  checkpointing_ = true;
  checkpoint_interval_ = interval_seconds > 0
                             ? interval_seconds
                             : retuner_.config().interval_seconds;
  struct Ckpt {
    static void Arm(ClusterHarness* self) {
      self->sim_.ScheduleAfter(self->checkpoint_interval_, [self] {
        // A crashed controller cannot checkpoint; the last blob taken
        // while it was healthy stays the restore point.
        if (!self->controller_down_) {
          ControllerCheckpoint::Build(self->sim_.Now(), self->retuner_,
                                      &self->stats_channel_,
                                      self->admission_.get(),
                                      &self->checkpoint_blob_);
        }
        Arm(self);
      });
    }
  };
  Ckpt::Arm(this);
}

bool ClusterHarness::CrashController() {
  if (controller_down_) return false;
  controller_down_ = true;
  retuner_.Stop();
  return true;
}

bool ClusterHarness::RestartController() {
  if (!controller_down_) return false;
  controller_down_ = false;
  // The crash lost the in-memory control plane. Either the checkpoint
  // brings it back, or the controller cold-starts and relearns.
  const char* why = "no_ckpt";
  double ckpt_t = 0;
  if (!checkpoint_blob_.empty()) {
    const ControllerCheckpoint::RestoreResult result =
        ControllerCheckpoint::Restore(checkpoint_blob_, &retuner_,
                                      &stats_channel_, admission_.get());
    // A rejected blob leaves everything reset — exactly the cold start.
    why = result.ok ? "restored" : "bad_ckpt";
    ckpt_t = result.taken_at;
  } else {
    retuner_.ResetControlState();
    stats_channel_.ResetReceiverState();
    if (admission_ != nullptr) admission_->ResetState();
  }
  if (observability_) {
    metrics_.counter(std::string("controller.recovery.") + why)->Increment();
    if (trace_.enabled()) {
      TraceEvent event("recovery");
      event.Num("t", sim_.Now()).Str("why", why);
      if (ckpt_t > 0) event.Num("ckpt_t", ckpt_t);
      trace_.Emit(event);
    }
  }
  retuner_.Restart();
  return true;
}

void ClusterHarness::Start() {
  if (started_) return;
  started_ = true;
  for (auto& emulator : emulators_) emulator->Start();
  retuner_.Start();
  if (fault_injector_ != nullptr) fault_injector_->Arm();
  StartMetricsSampler();
}

void ClusterHarness::RunFor(double seconds) {
  sim_.RunUntil(sim_.Now() + seconds);
}

ClusterHarness::WindowSummary ClusterHarness::Summarize(AppId app,
                                                        SimTime from,
                                                        SimTime to) const {
  WindowSummary summary;
  double latency_weighted = 0;
  for (const auto& sample : retuner_.samples()) {
    if (sample.time < from || sample.time >= to) continue;
    for (const auto& as : sample.apps) {
      if (as.app != app) continue;
      ++summary.intervals;
      summary.queries += as.queries;
      latency_weighted += as.avg_latency * static_cast<double>(as.queries);
      summary.avg_throughput += as.throughput;
      if (!as.sla_met) ++summary.sla_violations;
    }
  }
  if (summary.queries > 0) {
    summary.avg_latency = latency_weighted / summary.queries;
  }
  if (summary.intervals > 0) {
    summary.avg_throughput /= summary.intervals;
  }
  return summary;
}

}  // namespace fglb

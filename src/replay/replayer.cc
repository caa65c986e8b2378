#include "replay/replayer.h"

#include <cassert>
#include <cstdlib>

#include "sim/fault_injector.h"

namespace fglb {

CaptureAccessSource::CaptureAccessSource(const Capture* capture,
                                         double from_time)
    : capture_(capture) {
  assert(capture_ != nullptr);
  for (uint64_t i = 0; i < capture_->executions.size(); ++i) {
    if (capture_->executions[i].t < from_time) continue;
    queues_[capture_->executions[i].key].push_back(i);
    ++remaining_;
  }
}

bool CaptureAccessSource::NextAccesses(ClassKey key,
                                       std::vector<PageAccess>* out) {
  auto it = queues_.find(key);
  if (it == queues_.end() || it->second.empty()) {
    ++misses_;
    return false;
  }
  const CaptureExecution& exec = capture_->executions[it->second.front()];
  it->second.pop_front();
  out->insert(out->end(),
              capture_->accesses.begin() + exec.access_begin,
              capture_->accesses.begin() + exec.access_begin +
                  exec.access_count);
  ++served_;
  --remaining_;
  return true;
}

std::unique_ptr<ClusterHarness> BuildClusterFromCapture(
    const Capture& capture, CaptureAccessSource* source, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return nullptr;
  };

  SelectiveRetuner::Config config;
  config.interval_seconds = capture.info.interval_seconds;
  config.mrc.sample_rate = capture.info.mrc_sample_rate;
  config.max_migrations_per_interval =
      capture.info.max_migrations_per_interval;
  if (!capture.info.mrc_spec.empty()) {
    // The regret setting must be restored before the harness (and its
    // retuner) is built.
    std::string mrc_error;
    if (!ParseMrcSpec(capture.info.mrc_spec, &config.mrc, &mrc_error)) {
      return fail("capture carries unparsable mrc spec: " + mrc_error);
    }
  }

  auto harness = std::make_unique<ClusterHarness>(config);

  // The buffer hierarchy is baked into each engine at construction, so
  // the captured tier spec must be installed before the
  // first replica below (and they then also cover replicas the replayed
  // controller provisions mid-run).
  TierConfig tier_config;
  if (!capture.info.tier_spec.empty()) {
    std::string tier_error;
    if (!TierConfig::Parse(capture.info.tier_spec, &tier_config,
                           &tier_error)) {
      return fail("capture carries unparsable tier spec: " + tier_error);
    }
  }
  // Engines run LRU only; a capture of a CLOCK or ARC run cannot be
  // reproduced by them.
  const std::string& replacement = capture.info.replacement_spec;
  if (!replacement.empty() && replacement != "lru") {
    return fail("capture ran replacement policy '" + replacement +
                "'; replay runs LRU only and cannot reproduce it");
  }
  harness->resources().set_engine_defaults(tier_config);

  for (const CaptureServerSpec& s : capture.topology.servers) {
    PhysicalServer::Options server_options;
    server_options.cores = s.cores;
    server_options.memory_pages = s.memory_pages;
    server_options.disk.random_read_seconds = s.random_read_seconds;
    server_options.disk.extent_read_seconds = s.extent_read_seconds;
    server_options.disk.page_write_seconds = s.page_write_seconds;
    harness->resources().AddServer(server_options);
  }

  std::map<AppId, Scheduler*> schedulers;
  for (const ApplicationSpec& app : capture.topology.apps) {
    schedulers[app.id] = harness->AddApplication(app);
  }

  // Replicas must come back with their recorded ids: the controller's
  // replayed decisions and the fault schedule both address them by id,
  // and ResourceManager hands out ids in creation order.
  for (const CaptureReplicaSpec& spec : capture.topology.replicas) {
    if (spec.server < 0 ||
        spec.server >=
            static_cast<int>(harness->resources().servers().size())) {
      return fail("capture replica " + std::to_string(spec.id) +
                  " references unknown server " +
                  std::to_string(spec.server));
    }
    Replica* replica = harness->resources().CreateReplica(
        harness->resources().servers()[spec.server].get(), spec.pool_pages,
        spec.engine_seed);
    if (replica == nullptr) {
      return fail("capture replica " + std::to_string(spec.id) +
                  " does not fit on server " + std::to_string(spec.server));
    }
    if (replica->id() != spec.id) {
      return fail("cannot reproduce replica id " + std::to_string(spec.id) +
                  " (got " + std::to_string(replica->id()) + ")");
    }
  }

  for (const CapturePlacement& placement : capture.topology.placements) {
    auto it = schedulers.find(placement.app);
    if (it == schedulers.end()) {
      return fail("capture placement references unknown app " +
                  std::to_string(placement.app));
    }
    for (int id : placement.replica_ids) {
      Replica* replica = harness->resources().FindReplica(id);
      if (replica == nullptr) {
        return fail("capture placement references unknown replica " +
                    std::to_string(id));
      }
      it->second->AddReplica(replica);
    }
  }

  if (!capture.info.admission_spec.empty()) {
    AdmissionConfig admission_config;
    std::string admission_error;
    if (!AdmissionConfig::Parse(capture.info.admission_spec,
                                &admission_config, &admission_error)) {
      return fail("capture carries unparsable admission spec: " +
                  admission_error);
    }
    harness->EnableAdmission(admission_config);
  }

  if (!capture.info.span_spec.empty()) {
    SpanConfig span_config;
    std::string span_error;
    if (!SpanConfig::Parse(capture.info.span_spec, &span_config,
                           &span_error)) {
      return fail("capture carries unparsable span spec: " + span_error);
    }
    harness->EnableSpanTracing(span_config);
  }

  // Every run reads its stats through the channel. Captures write its
  // config as StatsChannelConfig::ToString(), "" at defaults; older ones
  // wrote "" for a direct hand-off and "guard=on" for the default
  // channel, and both replay over the default channel.
  StatsChannelConfig channel_config;
  std::string channel_error;
  if (!StatsChannelConfig::Parse(capture.info.stats_spec, &channel_config,
                                 &channel_error)) {
    return fail("capture carries unparsable stats spec: " + channel_error);
  }
  harness->stats_channel()->set_config(channel_config);

  if (!capture.info.ckpt_spec.empty()) {
    // The only key is "interval=<seconds>".
    const std::string& spec = capture.info.ckpt_spec;
    double ckpt_interval = 0;
    if (spec.rfind("interval=", 0) == 0) {
      char* end = nullptr;
      ckpt_interval = std::strtod(spec.c_str() + 9, &end);
      if (end == nullptr || *end != '\0') ckpt_interval = 0;
    }
    if (ckpt_interval <= 0) {
      return fail("capture carries unparsable checkpoint spec: " + spec);
    }
    harness->EnableCheckpointing(ckpt_interval);
  }

  if (source != nullptr) {
    // Existing replicas immediately; replicas the replayed controller
    // provisions (or fault restarts re-create) at creation.
    harness->resources().set_replica_observer([source](Replica* replica) {
      replica->engine().SetAccessReplaySource(source);
    });
  }

  if (!capture.info.fault_spec.empty()) {
    FaultSpec spec;
    std::string fault_error;
    if (!FaultSpec::Parse(capture.info.fault_spec, &spec, &fault_error)) {
      return fail("capture carries unparsable fault spec: " + fault_error);
    }
    harness->InjectFaults(std::move(spec), capture.info.fault_seed);
  }

  return harness;
}

ReplayRunner::ReplayRunner(const Capture* capture, ReplayBuildOptions options)
    : capture_(capture), options_(options) {
  assert(capture_ != nullptr);
}

bool ReplayRunner::Build(std::string* error) {
  if (built_) return harness_ != nullptr;
  built_ = true;
  source_ = std::make_unique<CaptureAccessSource>(capture_,
                                                  options_.from_time);
  harness_ = BuildClusterFromCapture(*capture_, source_.get(), error);
  if (harness_ == nullptr) return false;
  for (const auto& scheduler : harness_->schedulers()) {
    schedulers_[scheduler->app().id] = scheduler.get();
  }
  return true;
}

void ReplayRunner::FeedFrom(size_t index) {
  if (index >= capture_->arrivals.size()) return;
  const CaptureArrival& a = capture_->arrivals[index];
  harness_->sim().ScheduleAt(a.t, [this, index] {
    const CaptureArrival& arrival = capture_->arrivals[index];
    auto it = schedulers_.find(arrival.app);
    if (it != schedulers_.end()) {
      const QueryTemplate* tmpl =
          it->second->app().FindTemplate(arrival.cls);
      if (tmpl != nullptr) {
        QueryInstance query;
        query.app = arrival.app;
        query.tmpl = tmpl;
        query.client_id = arrival.client_id;
        query.submit_time = harness_->sim().Now();
        it->second->Submit(query, nullptr);
        ++arrivals_fed_;
      }
    }
    FeedFrom(index + 1);
  });
}

bool ReplayRunner::Run(std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (ran_) return fail("ReplayRunner::Run called twice");
  ran_ = true;
  if (!Build(error)) return false;

  // Validate every arrival resolves before simulating anything; a
  // missing template would silently drop load and skew the replay.
  for (const CaptureArrival& a : capture_->arrivals) {
    auto it = schedulers_.find(a.app);
    if (it == schedulers_.end()) {
      return fail("arrival references unknown app " + std::to_string(a.app));
    }
    if (it->second->app().FindTemplate(a.cls) == nullptr) {
      return fail("arrival references unknown class " + std::to_string(a.cls) +
                  " of app " + std::to_string(a.app));
    }
  }

  harness_->Start();
  FeedFrom(0);
  harness_->RunFor(capture_->info.duration_seconds);

  if (arrivals_fed_ != capture_->arrivals.size()) {
    return fail("fed " + std::to_string(arrivals_fed_) + " of " +
                std::to_string(capture_->arrivals.size()) +
                " recorded arrivals (duration too short?)");
  }
  if (!options_.lenient) {
    if (source_->misses() > 0) {
      return fail("replay diverged: " + std::to_string(source_->misses()) +
                  " executions fell back to generated accesses");
    }
    if (source_->remaining() > 0) {
      return fail("replay diverged: " + std::to_string(source_->remaining()) +
                  " recorded executions were never consumed");
    }
  }
  return true;
}

}  // namespace fglb

// fglb_sim: command-line scenario runner. Assembles one of the canned
// cluster scenarios, runs it for the requested simulated duration, and
// prints the interval series / action log as a table or CSV.
//
//   ./build/tools/fglb_sim --scenario=consolidation --duration=1800
//   ./build/tools/fglb_sim --scenario=burst --output=samples-csv > s.csv
//   ./build/tools/fglb_sim --scenario=chaos-replica --fault-seed=7
//       --trace-out=trace.jsonl

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "replay/capture.h"
#include "scenarios/cli_options.h"
#include "scenarios/harness.h"
#include "scenarios/report.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

// Per-app emulator options for a scenario whose (scaled) population is
// `clients`: batched cohorts kick in under --cohorts=auto once the app
// is large enough that per-client think events would dominate the
// event queue.
ClientEmulator::Options EmulatorOptions(const CliOptions& options,
                                        double clients) {
  constexpr double kAutoCohortClients = 10000;
  ClientEmulator::Options emu;
  emu.cohort = options.cohorts == "on" ||
               (options.cohorts == "auto" && clients >= kAutoCohortClients);
  return emu;
}

void Assemble(const CliOptions& options, ClusterHarness* harness) {
  harness->AddServers(options.servers);
  PhysicalServer* first = harness->resources().servers()[0].get();
  // --clients-scale multiplies every population below, including the
  // overload scenario's 7.5x default.
  const double tpcw_clients = options.tpcw_clients * options.clients_scale;
  const double rubis_clients = options.rubis_clients * options.clients_scale;

  switch (options.scenario) {
    case CliOptions::Scenario::kSteady: {
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(harness->resources().CreateReplica(first, 8192));
      harness->AddConstantClients(tpcw, tpcw_clients, options.seed,
                                  EmulatorOptions(options, tpcw_clients));
      break;
    }
    case CliOptions::Scenario::kBurst: {
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(harness->resources().CreateReplica(first, 8192));
      // Quarter load, then the full client count from one third in.
      harness->AddClients(
          tpcw,
          std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
              {0, tpcw_clients / 4},
              {options.duration_seconds / 3, tpcw_clients}}),
          options.seed, EmulatorOptions(options, tpcw_clients));
      break;
    }
    case CliOptions::Scenario::kConsolidation: {
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      RubisOptions rubis_options;
      rubis_options.app_id = 2;
      Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
      Replica* shared = harness->resources().CreateReplica(first, 8192);
      tpcw->AddReplica(shared);
      rubis->AddReplica(shared);
      harness->AddConstantClients(tpcw, tpcw_clients, options.seed,
                                  EmulatorOptions(options, tpcw_clients));
      harness->AddClients(
          rubis,
          std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
              {options.duration_seconds / 3, rubis_clients}}),
          options.seed + 1, EmulatorOptions(options, rubis_clients));
      break;
    }
    case CliOptions::Scenario::kIoContention: {
      RubisOptions a, b;
      a.app_id = 2;
      a.table_base = 11;
      b.app_id = 3;
      b.table_base = 21;
      Scheduler* rubis1 = harness->AddApplication(MakeRubis(a));
      Scheduler* rubis2 = harness->AddApplication(MakeRubis(b));
      rubis1->AddReplica(harness->resources().CreateReplica(first, 8192, 51));
      rubis2->AddReplica(harness->resources().CreateReplica(first, 8192, 52));
      harness->AddConstantClients(rubis1, rubis_clients, options.seed,
                                  EmulatorOptions(options, rubis_clients));
      harness->AddClients(
          rubis2,
          std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
              {options.duration_seconds / 3, rubis_clients}}),
          options.seed + 1, EmulatorOptions(options, rubis_clients));
      break;
    }
    case CliOptions::Scenario::kOverload: {
      // ~3x one replica's saturation point (~300 clients at TPC-W's 1s
      // think time): far past capacity, so without admission control
      // the queue (and every class's latency) collapses together.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(harness->resources().CreateReplica(first, 8192));
      const double clients = 7.5 * tpcw_clients;
      harness->AddConstantClients(tpcw, clients, options.seed,
                                  EmulatorOptions(options, clients));
      break;
    }
    case CliOptions::Scenario::kTierThrash:
    case CliOptions::Scenario::kTierFail: {
      // The consolidation squeeze, but the engines carry a second
      // tier: where the tierless run reschedules the arriving heavy
      // RUBiS class to another replica, here the cheaper rung is to
      // cap its DRAM quota and demote the working-set overflow into
      // the tier.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      RubisOptions rubis_options;
      rubis_options.app_id = 2;
      Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
      Replica* shared = harness->resources().CreateReplica(first, 8192);
      tpcw->AddReplica(shared);
      rubis->AddReplica(shared);
      harness->AddConstantClients(tpcw, tpcw_clients, options.seed,
                                  EmulatorOptions(options, tpcw_clients));
      // A sharper arrival than consolidation's: the squeeze must break
      // SLA within a controller interval of the step, while the heavy
      // class is still a suspect rather than an adopted baseline (the
      // tier's own cushioning otherwise delays the violation past the
      // stability window and the diagnosis clears everyone).
      const double rubis_step = 4.0 / 3.0 * rubis_clients;
      harness->AddClients(
          rubis,
          std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
              {options.duration_seconds / 3, rubis_step}}),
          options.seed + 1, EmulatorOptions(options, rubis_step));
      break;
    }
    case CliOptions::Scenario::kColdStart: {
      // Steady TPC-W on a half-size DRAM pool with everything cold at
      // t=0: the tier fills via demotions and then absorbs misses the
      // shrunken DRAM can no longer hold.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      tpcw->AddReplica(harness->resources().CreateReplica(first, 4096));
      harness->AddConstantClients(tpcw, tpcw_clients, options.seed,
                                  EmulatorOptions(options, tpcw_clients));
      break;
    }
    case CliOptions::Scenario::kChaosReplica:
    case CliOptions::Scenario::kChaosDisk:
    case CliOptions::Scenario::kChaosNet:
    case CliOptions::Scenario::kChaosCtl: {
      // Consolidation topology plus a second TPC-W replica so a crash
      // degrades capacity instead of zeroing it.
      Scheduler* tpcw = harness->AddApplication(MakeTpcw());
      RubisOptions rubis_options;
      rubis_options.app_id = 2;
      Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
      Replica* shared = harness->resources().CreateReplica(first, 8192);
      PhysicalServer* second =
          options.servers > 1 ? harness->resources().servers()[1].get()
                              : first;
      Replica* spare = harness->resources().CreateReplica(second, 8192, 2);
      tpcw->AddReplica(shared);
      tpcw->AddReplica(spare);
      rubis->AddReplica(shared);
      harness->AddConstantClients(tpcw, tpcw_clients, options.seed,
                                  EmulatorOptions(options, tpcw_clients));
      harness->AddConstantClients(rubis, rubis_clients, options.seed + 1,
                                  EmulatorOptions(options, rubis_clients));
      break;
    }
  }
}

const char* ScenarioName(CliOptions::Scenario scenario) {
  switch (scenario) {
    case CliOptions::Scenario::kSteady: return "steady";
    case CliOptions::Scenario::kBurst: return "burst";
    case CliOptions::Scenario::kConsolidation: return "consolidation";
    case CliOptions::Scenario::kIoContention: return "io";
    case CliOptions::Scenario::kChaosReplica: return "chaos-replica";
    case CliOptions::Scenario::kChaosDisk: return "chaos-disk";
    case CliOptions::Scenario::kChaosNet: return "chaos-net";
    case CliOptions::Scenario::kChaosCtl: return "chaos-ctl";
    case CliOptions::Scenario::kOverload: return "overload";
    case CliOptions::Scenario::kTierThrash: return "tier-thrash";
    case CliOptions::Scenario::kTierFail: return "tier-fail";
    case CliOptions::Scenario::kColdStart: return "cold-start";
  }
  return "unknown";
}

// The fault schedule a chaos scenario runs when --fault-spec is absent;
// times scale with --duration so short smoke runs still hit every
// fault. Non-chaos scenarios inject nothing by default.
std::string DefaultFaultSpec(const CliOptions& options) {
  const double d = options.duration_seconds;
  char buf[256];
  switch (options.scenario) {
    case CliOptions::Scenario::kChaosReplica:
      std::snprintf(buf, sizeof(buf),
                    "crash@%.0f:replica=1,restart=60;"
                    "stats@%.0f:replica=0,mode=partial,duration=60;"
                    "migration@%.0f:delay=2,fail=0.3,duration=%.0f",
                    d / 3, d / 2, d / 3, d / 3);
      return buf;
    case CliOptions::Scenario::kChaosDisk:
      std::snprintf(buf, sizeof(buf),
                    "disk@%.0f:server=0,factor=8,duration=%.0f;"
                    "slow@%.0f:replica=0,factor=3,duration=%.0f",
                    d / 3, d / 6, d / 2, d / 6);
      return buf;
    case CliOptions::Scenario::kChaosNet:
      // One long lossy window over the middle third of the run: the
      // controller rides last-known-good stats through it.
      std::snprintf(buf, sizeof(buf),
                    "net@%.0f:drop=0.08,dup=0.03,corrupt=0.02,reorder=0.05,"
                    "delay=1,duration=%.0f",
                    d / 3, d / 3);
      return buf;
    case CliOptions::Scenario::kChaosCtl:
      // A lossy window, then the controller itself crashes inside it
      // and restarts 30 s later from the FGLBCKPT1 checkpoint.
      std::snprintf(buf, sizeof(buf),
                    "net@%.0f:drop=0.08,duration=%.0f;"
                    "ctl@%.0f:restart=30",
                    d / 3, d / 3, d / 2);
      return buf;
    case CliOptions::Scenario::kTierFail:
      // The SSD tier dies cold mid-run, then recovers and later merely
      // degrades (hits land but cost 10x).
      std::snprintf(buf, sizeof(buf),
                    "tier@%.0f:replica=0,mode=fail,duration=%.0f;"
                    "tier@%.0f:replica=0,mode=degrade,factor=10,"
                    "duration=%.0f",
                    d / 3, d / 6, 2 * d / 3, d / 6);
      return buf;
    default:
      return "";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions options;
  std::string error;
  if (!ParseCliOptions(args, &options, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 CliUsage().c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s", CliUsage().c_str());
    return 0;
  }

  LogLevel level = LogLevel::kInfo;
  ParseLogLevel(options.log_level, &level);  // validated by the parser
  SetGlobalLogLevel(level);

  const bool chaos =
      options.scenario == CliOptions::Scenario::kChaosReplica ||
      options.scenario == CliOptions::Scenario::kChaosDisk ||
      options.scenario == CliOptions::Scenario::kChaosNet ||
      options.scenario == CliOptions::Scenario::kChaosCtl;
  const bool tiered_scenario =
      options.scenario == CliOptions::Scenario::kTierThrash ||
      options.scenario == CliOptions::Scenario::kTierFail ||
      options.scenario == CliOptions::Scenario::kColdStart;

  // Buffer-hierarchy defaults for every engine the run creates. The
  // tier-* scenarios turn the second tier on even without an explicit
  // --tier2-pages; any scenario can opt in with the flag.
  TierConfig tier_config;
  tier_config.pages = options.tier2_pages;
  if (tiered_scenario && tier_config.pages == 0) tier_config.pages = 16384;
  tier_config.read_us = options.tier2_read_us;
  tier_config.demote = options.tier2_demote;

  SelectiveRetuner::Config retuner_config;
  retuner_config.mrc.sample_rate = options.mrc_sample_rate;
  retuner_config.mrc.opt_regret = options.mrc_opt_regret;
  if (chaos) {
    // Under injected churn, bound re-placement so flapping faults
    // cannot translate into unbounded migrations.
    retuner_config.max_migrations_per_interval = 2;
  }
  if (options.scenario == CliOptions::Scenario::kColdStart) {
    // Cold-start runs half-size DRAM pools; replicas the controller
    // provisions must match.
    retuner_config.replica_pool_pages = 4096;
  }
  ClusterHarness harness(retuner_config);
  harness.resources().set_engine_defaults(tier_config);
  if (tier_config.enabled()) {
    LogInfo("second tier on: %s", tier_config.ToString().c_str());
  }
  if (!options.trace_out.empty()) {
    std::string trace_error;
    if (!harness.trace().OpenFile(options.trace_out, &trace_error)) {
      LogError("cannot open --trace-out file: %s", trace_error.c_str());
      return 1;
    }
    LogDebug("decision trace -> %s", options.trace_out.c_str());
  }
  if (options.metrics_interval_seconds > 0) {
    harness.StartMetricsSampler(options.metrics_interval_seconds);
  }
  Assemble(options, &harness);
  std::string admission_spec_text;
  const bool admission_on =
      options.admission == "on" ||
      (options.admission == "auto" &&
       options.scenario == CliOptions::Scenario::kOverload);
  if (admission_on) {
    AdmissionConfig admission_config;
    if (options.admission_target > 0) {
      admission_config.target_delay = options.admission_target;
    }
    if (options.admission_interval > 0) {
      admission_config.codel_interval_seconds = options.admission_interval;
    }
    if (options.admission_max_queue > 0) {
      admission_config.max_queue_depth =
          static_cast<uint64_t>(options.admission_max_queue);
    }
    if (options.admission_retry_ratio >= 0) {
      admission_config.retry_budget_ratio = options.admission_retry_ratio;
    }
    if (options.admission_breaker_threshold > 0) {
      admission_config.breaker_failure_threshold =
          options.admission_breaker_threshold;
    }
    if (options.admission_breaker_open > 0) {
      admission_config.breaker_open_seconds = options.admission_breaker_open;
    }
    harness.EnableAdmission(admission_config);
    admission_spec_text = admission_config.ToString();
    LogInfo("overload protection on: %s", admission_spec_text.c_str());
  }
  std::string span_spec_text;
  if (!options.spans_out.empty() || options.span_sample > 0) {
    SpanConfig span_config;
    if (options.span_sample > 0) span_config.sample_every = options.span_sample;
    SpanTracer* spans = harness.EnableSpanTracing(span_config);
    span_spec_text = spans->config().ToString();
    if (!options.spans_out.empty()) {
      std::string spans_error;
      if (!spans->OpenFile(options.spans_out, &spans_error)) {
        LogError("cannot open --spans-out file: %s", spans_error.c_str());
        return 1;
      }
      LogDebug("span timelines -> %s", options.spans_out.c_str());
    }
    LogInfo("span tracing on: %s", span_spec_text.c_str());
  }
  StatsChannelConfig channel_config;
  channel_config.guard = options.stats_guard != "off";
  harness.stats_channel()->set_config(channel_config);
  // "" at defaults; replays read "" (and the older "guard=on") as the
  // default channel.
  const std::string stats_spec_text = channel_config.ToString();
  if (!stats_spec_text.empty()) {
    LogInfo("stats channel: %s", stats_spec_text.c_str());
  }
  double ckpt_interval = options.ckpt_interval;
  if (ckpt_interval < 0) {
    ckpt_interval = options.scenario == CliOptions::Scenario::kChaosCtl
                        ? harness.retuner().config().interval_seconds
                        : 0;
  }
  if (ckpt_interval > 0) {
    harness.EnableCheckpointing(ckpt_interval);
    LogInfo("controller checkpointing on: every %.0f s", ckpt_interval);
  }
  const std::string fault_spec_text =
      !options.fault_spec.empty() ? options.fault_spec
                                  : DefaultFaultSpec(options);
  if (!fault_spec_text.empty()) {
    FaultSpec spec;
    std::string fault_error;
    if (!FaultSpec::Parse(fault_spec_text, &spec, &fault_error)) {
      std::fprintf(stderr, "error: bad --fault-spec: %s\n",
                   fault_error.c_str());
      return 2;
    }
    harness.InjectFaults(std::move(spec), options.fault_seed);
    LogInfo("fault schedule armed: %s (seed %llu)",
            harness.fault_injector()->spec().ToString().c_str(),
            static_cast<unsigned long long>(options.fault_seed));
  }
  std::unique_ptr<CaptureWriter> capture_writer;
  if (!options.capture_out.empty()) {
    capture_writer = std::make_unique<CaptureWriter>(&harness.sim());
    CaptureInfo info;
    info.seed = options.seed;
    info.fault_seed = options.fault_seed;
    info.scenario = ScenarioName(options.scenario);
    info.fault_spec = fault_spec_text;
    info.duration_seconds = options.duration_seconds;
    info.interval_seconds = harness.retuner().config().interval_seconds;
    info.mrc_sample_rate = options.mrc_sample_rate;
    info.max_migrations_per_interval =
        retuner_config.max_migrations_per_interval;
    info.admission_spec = admission_spec_text;
    info.span_spec = span_spec_text;
    info.mrc_spec = MrcSpecString(retuner_config.mrc);
    info.tier_spec = tier_config.ToString();
    info.stats_spec = stats_spec_text;
    if (ckpt_interval > 0) {
      char ckpt_buf[64];
      std::snprintf(ckpt_buf, sizeof(ckpt_buf), "interval=%g", ckpt_interval);
      info.ckpt_spec = ckpt_buf;
    }
    std::string capture_error;
    if (!capture_writer->Open(options.capture_out, info,
                              SnapshotTopology(harness), &capture_error)) {
      LogError("cannot open --capture-out file: %s", capture_error.c_str());
      return 1;
    }
    harness.AttachRecorders(capture_writer.get(), capture_writer.get());
    LogDebug("workload capture -> %s", options.capture_out.c_str());
  }
  harness.Start();
  LogInfo("scenario assembled: %d servers, %.0f simulated seconds",
          options.servers, options.duration_seconds);
  harness.RunFor(options.duration_seconds);

  const auto& retuner = harness.retuner();
  LogInfo("run complete: %zu intervals, %zu actions, %zu diagnoses",
          retuner.samples().size(), retuner.actions().size(),
          retuner.diagnoses().size());
  if (harness.admission() != nullptr) {
    uint64_t completed = 0;
    uint64_t sla_ok = 0;
    uint64_t shed = 0;
    for (const auto& s : harness.schedulers()) {
      completed += s->total_completed();
      sla_ok += s->total_sla_ok();
      shed += s->total_shed();
    }
    LogInfo("admission: %llu admitted, %llu shed; %llu of %llu "
            "completions within SLA",
            static_cast<unsigned long long>(harness.admission()->admitted()),
            static_cast<unsigned long long>(shed),
            static_cast<unsigned long long>(sla_ok),
            static_cast<unsigned long long>(completed));
  }
  if (harness.fault_injector() != nullptr) {
    LogInfo("faults injected: %llu (%llu no-op)",
            static_cast<unsigned long long>(
                harness.fault_injector()->faults_injected()),
            static_cast<unsigned long long>(
                harness.fault_injector()->noop_faults()));
  }
  if (capture_writer != nullptr) {
    if (!capture_writer->Finalize(retuner.actions(), retuner.samples())) {
      LogError("write error finalizing --capture-out file");
      return 1;
    }
    LogInfo("capture: %llu arrivals, %llu executions, %llu accesses, "
            "%llu bytes",
            static_cast<unsigned long long>(
                capture_writer->arrivals_recorded()),
            static_cast<unsigned long long>(
                capture_writer->executions_recorded()),
            static_cast<unsigned long long>(
                capture_writer->accesses_recorded()),
            static_cast<unsigned long long>(capture_writer->bytes_written()));
  }
  if (!options.trace_out.empty()) {
    LogDebug("trace events emitted: %llu",
             static_cast<unsigned long long>(
                 harness.trace().events_emitted()));
    harness.trace().Close();
  }
  if (harness.span_tracer() != nullptr) {
    SpanTracer* spans = harness.span_tracer();
    spans->Close();
    LogInfo("spans: %llu of %llu queries sampled, %llu finished",
            static_cast<unsigned long long>(spans->sampled()),
            static_cast<unsigned long long>(spans->sequence()),
            static_cast<unsigned long long>(spans->finished()));
  }
  if (!options.metrics_out.empty()) {
    if (!harness.metrics().WriteJson(options.metrics_out)) {
      LogError("cannot write --metrics-out file: %s",
               options.metrics_out.c_str());
      return 1;
    }
    LogDebug("metrics snapshot -> %s", options.metrics_out.c_str());
  }
  switch (options.output) {
    case CliOptions::Output::kTable:
      std::printf("%s", FormatSamplesTable(retuner.samples()).c_str());
      std::printf("\nactions:\n%s", FormatActions(retuner.actions()).c_str());
      std::printf("\ndiagnoses:\n%s",
                  FormatDiagnoses(retuner.diagnoses()).c_str());
      break;
    case CliOptions::Output::kSamplesCsv:
      std::printf("%s", SamplesCsv(retuner.samples()).c_str());
      break;
    case CliOptions::Output::kActionsCsv:
      std::printf("%s", ActionsCsv(retuner.actions()).c_str());
      break;
    case CliOptions::Output::kServersCsv:
      std::printf("%s", ServerUtilizationCsv(retuner.samples()).c_str());
      break;
  }
  return 0;
}

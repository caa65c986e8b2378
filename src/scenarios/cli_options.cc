#include "scenarios/cli_options.h"

#include <cstdlib>

namespace fglb {

namespace {

bool ParseScenario(const std::string& value, CliOptions::Scenario* out) {
  if (value == "steady") *out = CliOptions::Scenario::kSteady;
  else if (value == "burst") *out = CliOptions::Scenario::kBurst;
  else if (value == "consolidation")
    *out = CliOptions::Scenario::kConsolidation;
  else if (value == "io") *out = CliOptions::Scenario::kIoContention;
  else if (value == "chaos-replica")
    *out = CliOptions::Scenario::kChaosReplica;
  else if (value == "chaos-disk") *out = CliOptions::Scenario::kChaosDisk;
  else if (value == "chaos-net") *out = CliOptions::Scenario::kChaosNet;
  else if (value == "chaos-ctl") *out = CliOptions::Scenario::kChaosCtl;
  else if (value == "overload") *out = CliOptions::Scenario::kOverload;
  else if (value == "tier-thrash") *out = CliOptions::Scenario::kTierThrash;
  else if (value == "tier-fail") *out = CliOptions::Scenario::kTierFail;
  else if (value == "cold-start") *out = CliOptions::Scenario::kColdStart;
  else return false;
  return true;
}

bool ParseOutput(const std::string& value, CliOptions::Output* out) {
  if (value == "table") *out = CliOptions::Output::kTable;
  else if (value == "samples-csv") *out = CliOptions::Output::kSamplesCsv;
  else if (value == "actions-csv") *out = CliOptions::Output::kActionsCsv;
  else if (value == "servers-csv") *out = CliOptions::Output::kServersCsv;
  else return false;
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty()) return false;
  *out = parsed;
  return true;
}

bool ParseInt(const std::string& value, int* out) {
  double d = 0;
  if (!ParseDouble(value, &d) || d != static_cast<int>(d)) return false;
  *out = static_cast<int>(d);
  return true;
}

bool ParseUint64(const std::string& value, uint64_t* out) {
  // strtoull silently wraps negative input ("-5" parses fine), so
  // reject anything that is not a plain digit string up front.
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

}  // namespace

std::string CliUsage() {
  return R"(fglb_sim -- scenario runner for the fglb cluster simulator

usage: fglb_sim [options]

  --scenario=NAME   steady | burst | consolidation | io |
                    chaos-replica | chaos-disk | chaos-net |
                    chaos-ctl | overload |
                    tier-thrash | tier-fail | cold-start    (default steady)
  --output=FORMAT   table | samples-csv | actions-csv | servers-csv
  --servers=N       machines in the shared pool             (default 4)
  --duration=SEC    simulated seconds                       (default 900)
  --tpcw-clients=N  TPC-W closed-loop clients               (default 120)
  --rubis-clients=N RUBiS closed-loop clients               (default 45)
  --clients-scale=X multiply every scenario's client counts by X
                    (million-client runs: e.g. overload at
                    --clients-scale=100)                    (default 1)
  --cohorts=MODE    client emulation: auto | on | off; batched
                    cohorts replace per-client think events
                    (auto = on from 10k clients per app)    (default auto)
  --seed=N          RNG seed (runs are deterministic)       (default 1)
  --tier2-pages=N   second-tier (SSD) cache pages per engine; 0 = no
                    tier (tier-* scenarios default to 16384) (default 0)
  --tier2-read-us=X service time of one tier-2 hit in usec  (default 100)
  --tier2-demote=M  on | off: demote DRAM evictions into the tier
                                                            (default on)
  --mrc-sample-rate=R  Mattson replay sampling rate in (0,1];
                    1 = exact, 0.125 ~ 8x cheaper           (default 1)
  --mrc-opt-regret  attach the LRU-vs-Belady miss-ratio gap to every
                    diagnosed class (phase=mrc "regret_vs_opt")
  --trace-out=FILE  write the controller's JSONL decision trace
                    (one event per diagnosis phase per interval)
  --capture-out=FILE  record the full workload stream (arrivals,
                    page accesses, topology, actions) for fglb_replay
  --metrics-out=FILE  write a final metrics-registry JSON snapshot
  --metrics-interval=SEC  engine-stats sampling period;
                    0 = the retuner interval                 (default 0)
  --spans-out=FILE  write sampled per-query span timelines as Chrome
                    trace_event JSON (load in ui.perfetto.dev)
  --span-sample=N   trace 1 in N queries, deterministically by submit
                    sequence; implies span tracing even without
                    --spans-out                      (default 64)
  --fault-spec=SPEC fault schedule, e.g.
                    "crash@120:replica=1,restart=60;disk@300:server=0,factor=8,duration=120"
                    (chaos-* scenarios provide one if omitted)
  --fault-seed=N    fault-injector seed (schedule + decisions) (default 1)
  --stats-guard=M   on | off: decay controller confidence while stats
                    reports are missing (fences widen, per-class
                    actions pause); off is the flapping ablation arm
                                                            (default on)
  --ckpt-interval=SEC  FGLBCKPT1 controller-checkpoint cadence;
                    0 = off, -1 = auto (chaos-ctl checkpoints every
                    retuner interval)                       (default -1)
  --admission=MODE  overload protection: on | off | auto
                    (auto = on for the overload scenario)    (default auto)
  --admission-target=R     CoDel target delay as a fraction of the SLA
  --admission-interval=SEC CoDel shed-decision window
  --admission-max-queue=N  per-replica in-flight cap before queue_full
  --admission-retry-ratio=R  retry tokens accrued per admitted query
  --admission-breaker-threshold=N  consecutive timeouts tripping a breaker
  --admission-breaker-open=SEC  breaker open time before half-open probes
  --log-level=L     quiet | info | debug                    (default info)
  --help            this text
)";
}

bool ParseCliOptions(const std::vector<std::string>& args,
                     CliOptions* options, std::string* error) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return false;
    }
    std::string key = arg.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "mrc-opt-regret") {
      value = "on";  // bare boolean flag: --mrc-opt-regret
    } else {
      if (i + 1 >= args.size()) {
        *error = "missing value for --" + key;
        return false;
      }
      value = args[++i];
    }

    bool ok = true;
    if (key == "scenario") {
      ok = ParseScenario(value, &options->scenario);
    } else if (key == "output") {
      ok = ParseOutput(value, &options->output);
    } else if (key == "servers") {
      ok = ParseInt(value, &options->servers) && options->servers > 0;
    } else if (key == "duration") {
      ok = ParseDouble(value, &options->duration_seconds) &&
           options->duration_seconds > 0;
    } else if (key == "tpcw-clients") {
      ok = ParseDouble(value, &options->tpcw_clients) &&
           options->tpcw_clients >= 0;
    } else if (key == "rubis-clients") {
      ok = ParseDouble(value, &options->rubis_clients) &&
           options->rubis_clients >= 0;
    } else if (key == "clients-scale") {
      ok = ParseDouble(value, &options->clients_scale) &&
           options->clients_scale > 0;
    } else if (key == "cohorts") {
      ok = value == "auto" || value == "on" || value == "off";
      options->cohorts = value;
    } else if (key == "seed") {
      ok = ParseUint64(value, &options->seed);
    } else if (key == "tier2-pages") {
      ok = ParseUint64(value, &options->tier2_pages);
    } else if (key == "tier2-read-us") {
      ok = ParseDouble(value, &options->tier2_read_us) &&
           options->tier2_read_us > 0;
    } else if (key == "tier2-demote") {
      ok = value == "on" || value == "off" || value == "1" || value == "0";
      options->tier2_demote = value == "on" || value == "1";
    } else if (key == "mrc-sample-rate") {
      ok = ParseDouble(value, &options->mrc_sample_rate) &&
           options->mrc_sample_rate > 0 && options->mrc_sample_rate <= 1;
    } else if (key == "mrc-opt-regret") {
      ok = value == "on" || value == "off" || value == "1" || value == "0";
      options->mrc_opt_regret = value == "on" || value == "1";
    } else if (key == "trace-out") {
      ok = !value.empty();
      options->trace_out = value;
    } else if (key == "capture-out") {
      ok = !value.empty();
      options->capture_out = value;
    } else if (key == "metrics-out") {
      ok = !value.empty();
      options->metrics_out = value;
    } else if (key == "metrics-interval") {
      ok = ParseDouble(value, &options->metrics_interval_seconds) &&
           options->metrics_interval_seconds >= 0;
    } else if (key == "spans-out") {
      ok = !value.empty();
      options->spans_out = value;
    } else if (key == "span-sample") {
      ok = ParseUint64(value, &options->span_sample) &&
           options->span_sample > 0;
    } else if (key == "fault-spec") {
      ok = !value.empty();
      options->fault_spec = value;
    } else if (key == "fault-seed") {
      ok = ParseUint64(value, &options->fault_seed);
    } else if (key == "stats-guard") {
      ok = value == "on" || value == "off" || value == "1" || value == "0";
      options->stats_guard = (value == "on" || value == "1") ? "on" : "off";
    } else if (key == "ckpt-interval") {
      ok = ParseDouble(value, &options->ckpt_interval) &&
           options->ckpt_interval >= -1;
    } else if (key == "admission") {
      ok = value == "on" || value == "off" || value == "auto";
      options->admission = value;
    } else if (key == "admission-target") {
      ok = ParseDouble(value, &options->admission_target) &&
           options->admission_target > 0;
    } else if (key == "admission-interval") {
      ok = ParseDouble(value, &options->admission_interval) &&
           options->admission_interval > 0;
    } else if (key == "admission-max-queue") {
      ok = ParseInt(value, &options->admission_max_queue) &&
           options->admission_max_queue > 0;
    } else if (key == "admission-retry-ratio") {
      ok = ParseDouble(value, &options->admission_retry_ratio) &&
           options->admission_retry_ratio >= 0;
    } else if (key == "admission-breaker-threshold") {
      ok = ParseInt(value, &options->admission_breaker_threshold) &&
           options->admission_breaker_threshold > 0;
    } else if (key == "admission-breaker-open") {
      ok = ParseDouble(value, &options->admission_breaker_open) &&
           options->admission_breaker_open > 0;
    } else if (key == "log-level") {
      ok = value == "quiet" || value == "info" || value == "debug";
      options->log_level = value;
    } else {
      *error = "unknown option --" + key;
      return false;
    }
    if (!ok) {
      *error = "invalid value for --" + key + ": " + value;
      return false;
    }
  }
  return true;
}

}  // namespace fglb

// fglb_replay: offline consumer of workload captures recorded by
// fglb_sim --capture-out. Default mode re-drives the whole cluster
// deterministically from the capture and reports whether the replayed
// controller reproduced the recorded action log; other modes print a
// capture summary or evaluate what-if actions against a violation
// window.
//
//   ./build/tools/fglb_replay run.fglbcap --trace-out=replay.jsonl
//   ./build/tools/fglb_replay run.fglbcap --summary
//   ./build/tools/fglb_replay run.fglbcap --what-if --horizon=60

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "replay/what_if.h"

namespace {

using namespace fglb;

struct ReplayCliOptions {
  std::string capture_path;
  std::string trace_out;
  std::string spans_out;
  bool summary = false;
  bool what_if = false;
  bool lenient = false;
  double window_start = -1;
  double horizon_seconds = 60;
  uint64_t quota_pages = 0;
  bool help = false;
};

const char kUsage[] =
    R"(fglb_replay -- deterministic replay & what-if evaluation of captures

usage: fglb_replay CAPTURE [options]

  --trace-out=FILE   write the replayed controller's JSONL decision
                     trace (compare its --phase=action projection with
                     the live run's via fglb_tracecat)
  --spans-out=FILE   write the replayed run's sampled span timelines
                     (Chrome trace_event JSON; requires a capture whose
                     live run had span tracing on — byte-identical to
                     the live --spans-out file)
  --summary          print the capture's metadata and stream counts
  --what-if          replay the first (or requested) violation window
                     against quota / migrate / no-op candidates and
                     rank them against the live controller's choice
  --window-start=SEC what-if window start; -1 = auto-detect   (default -1)
  --horizon=SEC      what-if evaluation horizon               (default 60)
  --quota-pages=N    what-if quota size; 0 = auto             (default 0)
  --lenient          tolerate replay divergence (engines regenerate
                     accesses when the recorded stream runs dry)
  --mrc-threads=N    accepted for compatibility and ignored: MRC
                     diagnosis is serial (N must be an integer >= 0)
  --help             this text
)";

// A non-negative decimal integer: digits only, so a sign, a blank or
// an empty value is rejected rather than wrapped or read as 0.
bool ParseCount(const std::string& value, uint64_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(value.c_str(), nullptr, 10);
  return errno != ERANGE;
}

bool ParseArgs(const std::vector<std::string>& args, ReplayCliOptions* out,
               std::string* error) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out->help = true;
      continue;
    }
    if (arg == "--summary") {
      out->summary = true;
      continue;
    }
    if (arg == "--what-if") {
      out->what_if = true;
      continue;
    }
    if (arg == "--lenient") {
      out->lenient = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!out->capture_path.empty()) {
        *error = "more than one capture file given";
        return false;
      }
      out->capture_path = arg;
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= args.size()) {
        *error = "missing value for --" + key;
        return false;
      }
      value = args[++i];
    }
    char* end = nullptr;
    bool ok = true;
    if (key == "trace-out") {
      ok = !value.empty();
      out->trace_out = value;
    } else if (key == "spans-out") {
      ok = !value.empty();
      out->spans_out = value;
    } else if (key == "window-start") {
      out->window_start = std::strtod(value.c_str(), &end);
      ok = end != nullptr && *end == '\0' && !value.empty() &&
           std::isfinite(out->window_start);
    } else if (key == "horizon") {
      out->horizon_seconds = std::strtod(value.c_str(), &end);
      ok = end != nullptr && *end == '\0' &&
           std::isfinite(out->horizon_seconds) && out->horizon_seconds > 0;
    } else if (key == "quota-pages") {
      ok = ParseCount(value, &out->quota_pages);
    } else if (key == "mrc-threads") {
      uint64_t ignored = 0;
      ok = ParseCount(value, &ignored);
    } else {
      *error = "unknown option --" + key;
      return false;
    }
    if (!ok) {
      *error = "invalid value for --" + key + ": " + value;
      return false;
    }
  }
  if (!out->help && out->capture_path.empty()) {
    *error = "no capture file given";
    return false;
  }
  return true;
}

void PrintSummary(const Capture& capture) {
  const CaptureInfo& info = capture.info;
  std::printf("capture of scenario '%s'\n", info.scenario.c_str());
  std::printf("  duration            %.1f s (interval %.1f s)\n",
              info.duration_seconds, info.interval_seconds);
  std::printf("  seeds               workload=%llu fault=%llu\n",
              static_cast<unsigned long long>(info.seed),
              static_cast<unsigned long long>(info.fault_seed));
  std::printf("  fault spec          %s\n",
              info.fault_spec.empty() ? "(none)" : info.fault_spec.c_str());
  std::printf("  controller          mrc-sample-rate=%g "
              "max-migrations/interval=%d\n",
              info.mrc_sample_rate, info.max_migrations_per_interval);
  if (!info.tier_spec.empty() || !info.replacement_spec.empty()) {
    std::printf("  buffer hierarchy    tier=%s replacement=%s\n",
                info.tier_spec.empty() ? "(none)" : info.tier_spec.c_str(),
                info.replacement_spec.empty() ? "lru"
                                              : info.replacement_spec.c_str());
  }
  std::printf("  topology            %zu servers, %zu apps, %zu replicas\n",
              capture.topology.servers.size(), capture.topology.apps.size(),
              capture.topology.replicas.size());
  for (const ApplicationSpec& app : capture.topology.apps) {
    std::printf("    app %u '%s': %zu classes, SLA %.2f s\n", app.id,
                app.name.c_str(), app.templates.size(),
                app.sla_latency_seconds);
  }
  std::printf("  streams             %zu arrivals, %zu executions, "
              "%zu page accesses\n",
              capture.arrivals.size(), capture.executions.size(),
              capture.accesses.size());
  std::printf("  controller log      %zu actions, %zu interval samples\n",
              capture.actions.size(), capture.samples.size());
  int violations = 0;
  for (const CaptureSample& s : capture.samples) {
    for (const auto& a : s.apps) {
      if (!a.sla_met) ++violations;
    }
  }
  std::printf("  SLA violations      %d app-intervals\n", violations);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  ReplayCliOptions options;
  std::string error;
  if (!ParseArgs(args, &options, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }

  Capture capture;
  if (!ReadCapture(options.capture_path, &capture, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  if (options.summary) {
    PrintSummary(capture);
    return 0;
  }

  if (options.what_if) {
    WhatIfOptions what_if;
    what_if.window_start = options.window_start;
    what_if.horizon_seconds = options.horizon_seconds;
    what_if.quota_pages = options.quota_pages;
    WhatIfRunner runner(&capture, what_if);
    WhatIfResult result;
    if (!runner.Run(&result, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s", result.Format().c_str());
    return 0;
  }

  ReplayBuildOptions build;
  build.lenient = options.lenient;
  ReplayRunner runner(&capture, build);
  if (!runner.Build(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!options.trace_out.empty() &&
      !runner.harness()->trace().OpenFile(options.trace_out, &error)) {
    std::fprintf(stderr, "error: cannot open --trace-out: %s\n",
                 error.c_str());
    return 1;
  }
  if (!options.spans_out.empty()) {
    SpanTracer* spans = runner.harness()->span_tracer();
    if (spans == nullptr) {
      // The capture carries no span spec — tracing with an arbitrary
      // sampling rate here could not be byte-compared to anything.
      std::fprintf(stderr,
                   "error: capture has no span spec (live run did not "
                   "enable span tracing); --spans-out unavailable\n");
      return 1;
    }
    if (!spans->OpenFile(options.spans_out, &error)) {
      std::fprintf(stderr, "error: cannot open --spans-out: %s\n",
                   error.c_str());
      return 1;
    }
  }
  if (!runner.Run(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!options.trace_out.empty()) runner.harness()->trace().Close();
  if (runner.harness()->span_tracer() != nullptr) {
    runner.harness()->span_tracer()->Close();
  }

  const SelectiveRetuner& retuner = runner.harness()->retuner();
  std::printf("replayed %llu arrivals; controller: %zu actions over %zu "
              "intervals (live run: %zu actions)\n",
              static_cast<unsigned long long>(runner.arrivals_fed()),
              retuner.actions().size(), retuner.samples().size(),
              capture.actions.size());
  // Cheap in-process cross-check of the action logs (the byte-level
  // check compares trace projections via fglb_tracecat).
  size_t mismatches = 0;
  const size_t n = retuner.actions().size();
  if (n != capture.actions.size()) {
    ++mismatches;
  } else {
    for (size_t i = 0; i < n; ++i) {
      const auto& a = retuner.actions()[i];
      const auto& b = capture.actions[i];
      if (a.time != b.t || static_cast<uint8_t>(a.kind) != b.kind ||
          a.app != b.app || a.description != b.description) {
        ++mismatches;
      }
    }
  }
  if (mismatches == 0) {
    std::printf("action log matches the captured live run exactly\n");
  } else {
    std::printf("action log DIVERGES from the captured live run\n");
    return options.lenient ? 0 : 1;
  }
  return 0;
}

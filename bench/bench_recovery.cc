// Controller survivability benchmark: SLA recovery under a lossy
// stats-report transport, with the stale-telemetry guard on vs off.
//
// Three arms run the consolidation cluster (TPC-W + RUBiS sharing a
// replica — RUBiS violates its SLA until the controller untangles the
// interference) with the stats channel enabled:
//
//   lossless   guard on,  clean transport        (the reference)
//   guarded    guard on,  ~5-10% report loss     (confidence decay,
//                                                 fence widening,
//                                                 action suppression)
//   unguarded  guard off, the same lossy window  (the ablation: trusts
//                                                 last-known-good stats
//                                                 at full confidence)
//
// Emits BENCH_recovery.json. Headline acceptance numbers:
//   recovery_ratio_guarded <= 1.5   (lossy-but-guarded recovery within
//                                    1.5x the lossless run)
//   flap_ratio_unguarded   >  1     (the unguarded arm re-places
//                                    strictly more often — it flaps)
//
//   ./build/bench/bench_recovery [output.json]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "scenarios/harness.h"
#include "sim/fault_injector.h"
#include "workload/load_function.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

constexpr double kDurationSeconds = 600;
constexpr uint64_t kSeed = 31;
// The lossy window covers the whole recovery phase: ~8% outright drops
// plus duplicate/corrupt/reordered reports, the chaos-net profile.
constexpr char kLossyWindow[] =
    "net@5:drop=0.08,dup=0.03,corrupt=0.02,reorder=0.05,delay=1,"
    "duration=590";

struct Outcome {
  double recovery_seconds = 0;  // last RUBiS SLA violation timestamp
  int violations = 0;
  uint64_t placement_actions = 0;  // migrate/evict/demote count
  uint64_t reports_lost = 0;       // stale controller collects
  double wall_ms = 0;
  uint64_t accesses = 0;  // engine page accesses over the run
};

Outcome Run(bool guard, bool lossy) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  bench::AccessCounter counter;  // declared first: outlives the harness
  ClusterHarness harness(config);
  StatsChannelConfig channel_config;
  channel_config.guard = guard;
  harness.stats_channel()->set_config(channel_config);
  harness.AddServers(3);
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness.AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness.resources().CreateReplica(
      harness.resources().servers()[0].get(), 8192);
  Replica* spare = harness.resources().CreateReplica(
      harness.resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(shared);
  tpcw->AddReplica(spare);
  rubis->AddReplica(shared);
  harness.AddConstantClients(tpcw, 120, kSeed);
  // RUBiS load swings 15..65 clients every 150 s: each crest re-creates
  // the interference, so the controller keeps diagnosing and acting all
  // the way through the lossy window instead of settling once at t=60.
  harness.AddClients(rubis, std::make_unique<SineLoad>(40, 25, 150),
                     kSeed + 1);
  if (lossy) {
    FaultSpec spec;
    std::string error;
    if (!FaultSpec::Parse(kLossyWindow, &spec, &error)) {
      std::fprintf(stderr, "bad lossy window spec: %s\n", error.c_str());
      std::exit(2);
    }
    harness.InjectFaults(std::move(spec), kSeed);
  }
  harness.AttachRecorders(nullptr, &counter);

  const auto start = std::chrono::steady_clock::now();
  harness.Start();
  harness.RunFor(kDurationSeconds);
  Outcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.accesses = counter.accesses();
  for (const auto& sample : harness.retuner().samples()) {
    for (const auto& app : sample.apps) {
      if (app.app != rubis->app().id || app.sla_met) continue;
      ++out.violations;
      out.recovery_seconds = sample.time;
    }
  }
  for (const auto& action : harness.retuner().actions()) {
    switch (action.kind) {
      case SelectiveRetuner::ActionKind::kClassRescheduled:
      case SelectiveRetuner::ActionKind::kIoEviction:
      case SelectiveRetuner::ActionKind::kDemote:
        ++out.placement_actions;
        break;
      default:
        break;
    }
  }
  out.reports_lost =
      harness.metrics().counter("stats_channel.stale_collects")->value();
  return out;
}

void PrintRow(const char* name, const Outcome& o) {
  std::printf("%-12s %12.0f %12d %12llu %12llu\n", name, o.recovery_seconds,
              o.violations, static_cast<unsigned long long>(o.placement_actions),
              static_cast<unsigned long long>(o.reports_lost));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  bench::PrintHeader(
      "Controller survivability: SLA recovery under lossy stats transport");
  std::printf("consolidation (TPC-W + RUBiS), %.0f simulated seconds, "
              "window: %s\n\n",
              kDurationSeconds, kLossyWindow);

  const Outcome lossless = Run(/*guard=*/true, /*lossy=*/false);
  const Outcome guarded = Run(/*guard=*/true, /*lossy=*/true);
  const Outcome unguarded = Run(/*guard=*/false, /*lossy=*/true);

  std::printf("%-12s %12s %12s %12s %12s\n", "arm", "recovery_s",
              "violations", "placements", "lost_rpts");
  PrintRow("lossless", lossless);
  PrintRow("guarded", guarded);
  PrintRow("unguarded", unguarded);

  const double recovery_ratio =
      lossless.recovery_seconds > 0
          ? guarded.recovery_seconds / lossless.recovery_seconds
          : 0;
  const double flap_ratio =
      guarded.placement_actions > 0
          ? static_cast<double>(unguarded.placement_actions) /
                static_cast<double>(guarded.placement_actions)
          : static_cast<double>(unguarded.placement_actions);

  bench::BenchJsonWriter json;
  json.Add("lossless", lossless.wall_ms,
           static_cast<double>(lossless.accesses));
  json.Add("guarded", guarded.wall_ms, static_cast<double>(guarded.accesses));
  json.Add("unguarded", unguarded.wall_ms,
           static_cast<double>(unguarded.accesses));
  json.AddField("recovery_lossless_s", lossless.recovery_seconds);
  json.AddField("recovery_guarded_s", guarded.recovery_seconds);
  json.AddField("recovery_unguarded_s", unguarded.recovery_seconds);
  json.AddField("recovery_ratio_guarded", recovery_ratio);
  json.AddField("placements_guarded",
                static_cast<double>(guarded.placement_actions));
  json.AddField("placements_unguarded",
                static_cast<double>(unguarded.placement_actions));
  json.AddField("flap_ratio_unguarded", flap_ratio);
  json.AddField("reports_lost_guarded",
                static_cast<double>(guarded.reports_lost));
  json.WriteTo(json_path);

  std::printf("\nguarded recovery vs lossless: %.0f s vs %.0f s (%.2fx, "
              "gate 1.5x)\n",
              guarded.recovery_seconds, lossless.recovery_seconds,
              recovery_ratio);
  std::printf("placement actions, unguarded vs guarded: %llu vs %llu\n",
              static_cast<unsigned long long>(unguarded.placement_actions),
              static_cast<unsigned long long>(guarded.placement_actions));
  const bool recovery_holds =
      guarded.recovery_seconds <= 1.5 * lossless.recovery_seconds;
  const bool flap_holds =
      unguarded.placement_actions > guarded.placement_actions;
  std::printf("guarded recovery within 1.5x lossless: %s\n",
              recovery_holds ? "yes" : "NO");
  std::printf("unguarded arm flaps (strictly more placements): %s\n",
              flap_holds ? "yes" : "NO");
  const bool holds = recovery_holds && flap_holds && guarded.reports_lost > 0;
  std::printf("shape %s\n", holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}

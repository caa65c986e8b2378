#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/trace_check.h"
#include "scenarios/harness.h"
#include "sim/fault_injector.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// Chaos soak: random fault schedules (crashes, disk spikes, slowdowns,
// stats dropouts, migration windows) against a shared-replica cluster.
// Whatever the schedule does, the run must terminate, conserve every
// query of the closed loop, respect the controller's retry and
// per-interval migration budgets, and leave a well-formed trace.

struct SoakResult {
  uint64_t emitted = 0;     // queries the emulators saw complete
  uint64_t completed = 0;   // queries the schedulers accounted
  uint64_t faults = 0;      // applied fault count
};

SoakResult RunSoak(uint64_t seed, const RandomFaultProfile& profile,
                   double duration, bool survivability = false) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  if (survivability) {
    // ctl crashes restore from FGLBCKPT1 instead of cold-starting.
    h.EnableCheckpointing();
  }
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = h.AddApplication(MakeRubis(rubis_options));
  Replica* shared = h.resources().CreateReplica(
      h.resources().servers()[0].get(), 8192);
  Replica* spare = h.resources().CreateReplica(
      h.resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(shared);
  tpcw->AddReplica(spare);
  rubis->AddReplica(shared);
  ClientEmulator* tpcw_clients =
      h.AddConstantClients(tpcw, 80, /*seed=*/seed);
  ClientEmulator* rubis_clients =
      h.AddConstantClients(rubis, 30, /*seed=*/seed + 1);

  FaultSpec spec = MakeRandomFaultSpec(seed, duration, profile);
  const size_t scheduled = spec.events.size();
  h.InjectFaults(std::move(spec), seed);
  h.Start();
  h.RunFor(duration);

  // Quiesce: stop the client loops and let in-flight work finish so
  // conservation can be checked exactly.
  tpcw_clients->Stop();
  rubis_clients->Stop();
  h.RunFor(120);
  EXPECT_EQ(tpcw_clients->active_clients(), 0u);
  EXPECT_EQ(rubis_clients->active_clients(), 0u);

  // Closed-loop conservation: every query an emulator issued came back
  // through a scheduler. A crash that lost an in-flight query would
  // leave its client stuck (caught above) or break this equality.
  SoakResult result;
  result.emitted = tpcw_clients->completed_queries() +
                   rubis_clients->completed_queries();
  result.completed = tpcw->total_completed() + rubis->total_completed();
  EXPECT_EQ(result.emitted, result.completed);
  EXPECT_GT(result.completed, 0u);

  // Every scheduled event fired (as an application or a counted no-op).
  const FaultInjector* injector = h.fault_injector();
  result.faults = injector->faults_injected();
  EXPECT_GE(injector->faults_injected() + injector->noop_faults(),
            scheduled);

  // Migration state machine invariants: the retry budget is a hard
  // cap, and the per-interval start budget bounds total starts.
  const auto& stats = h.retuner().migration_stats();
  EXPECT_LE(stats.max_attempts_observed,
            1 + h.retuner().config().migration_max_retries);
  EXPECT_LE(stats.applied + stats.abandoned, stats.started);
  EXPECT_LE(stats.started, 2 * h.retuner().samples().size());

  // The trace survives the churn structurally intact.
  std::string error;
  EXPECT_TRUE(CheckTraceLines(h.trace().BufferedLines(), &error)) << error;
  return result;
}

TEST(ChaosSoakTest, RandomSchedulesKeepInvariantsAcrossSeeds) {
  RandomFaultProfile profile;
  profile.replicas = 2;
  profile.servers = 3;
  for (uint64_t seed : {3u, 17u, 42u, 101u, 7777u}) {
    RunSoak(seed, profile, /*duration=*/300);
  }
}

TEST(ChaosSoakTest, HeavyProfileStaysBounded) {
  // Twice the churn, overlapping windows, wider time band.
  RandomFaultProfile profile;
  profile.replicas = 2;
  profile.servers = 3;
  profile.crashes = 2;
  profile.disk_spikes = 2;
  profile.slowdowns = 2;
  profile.stats_dropouts = 2;
  profile.migration_windows = 2;
  profile.min_time_fraction = 0.1;
  profile.max_time_fraction = 0.9;
  const SoakResult result = RunSoak(9001, profile, /*duration=*/400);
  EXPECT_GT(result.faults, 0u);
}

TEST(ChaosSoakTest, SurvivabilityProfileKeepsInvariantsAcrossSeeds) {
  // The full fault surface: legacy churn plus tier faults, lossy
  // stats-transport windows and a controller crash/restart, against a
  // harness running the checkpoint cadence. The same
  // conservation / budget / trace invariants must hold — a restored
  // controller double-starting migrations would blow the start budget,
  // and malformed recovery events would fail the trace check.
  RandomFaultProfile profile;
  profile.replicas = 2;
  profile.servers = 3;
  profile.tier_faults = 1;
  profile.net_windows = 2;
  profile.ctl_crashes = 1;
  for (uint64_t seed : {5u, 23u, 404u}) {
    const SoakResult result =
        RunSoak(seed, profile, /*duration=*/400, /*survivability=*/true);
    EXPECT_GT(result.faults, 0u);
  }
}

}  // namespace
}  // namespace fglb

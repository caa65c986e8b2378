#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace_check.h"
#include "scenarios/harness.h"
#include "sim/fault_injector.h"
#include "trace_compare.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// End-to-end controller survivability: a consolidation cluster running
// the stats channel and checkpoint cadence, crashed and restarted
// mid-run — the controller must resume within one diagnosis interval
// from the FGLBCKPT1 blob with no duplicate migrations, and the whole
// run must stay deterministic.

std::unique_ptr<ClusterHarness> MakeCluster(bool guard = true) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  auto h = std::make_unique<ClusterHarness>(config);
  h->trace().EnableBuffering();
  StatsChannelConfig channel_config;
  channel_config.guard = guard;
  h->stats_channel()->set_config(channel_config);
  h->EnableCheckpointing();
  h->AddServers(3);
  Scheduler* tpcw = h->AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = h->AddApplication(MakeRubis(rubis_options));
  Replica* shared =
      h->resources().CreateReplica(h->resources().servers()[0].get(), 8192);
  Replica* spare = h->resources().CreateReplica(
      h->resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(shared);
  tpcw->AddReplica(spare);
  rubis->AddReplica(shared);
  h->AddConstantClients(tpcw, 120, /*seed=*/7);
  h->AddConstantClients(rubis, 40, /*seed=*/8);
  return h;
}

std::vector<JsonValue> ParsedTrace(ClusterHarness& h) {
  std::vector<JsonValue> events;
  for (const std::string& line : h.trace().BufferedLines()) {
    JsonValue event;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(line, &event, &error)) << error;
    events.push_back(std::move(event));
  }
  return events;
}

TEST(RecoveryTest, RestartResumesWithinOneIntervalFromCheckpoint) {
  auto h = MakeCluster();
  h->Start();
  h->RunFor(200);
  const double interval = h->retuner().config().interval_seconds;

  ASSERT_TRUE(h->CrashController());
  EXPECT_TRUE(h->controller_down());
  EXPECT_FALSE(h->CrashController());  // already down
  const size_t samples_at_crash = h->retuner().samples().size();
  h->RunFor(35);
  // Down means down: no diagnosis intervals while crashed.
  EXPECT_EQ(h->retuner().samples().size(), samples_at_crash);

  ASSERT_TRUE(h->RestartController());
  EXPECT_FALSE(h->controller_down());
  EXPECT_FALSE(h->RestartController());  // already up
  const double restart_time = h->sim().Now();
  h->RunFor(185);

  // Back within one diagnosis interval of the restart.
  double first_tick_after = 0;
  for (const auto& sample : h->retuner().samples()) {
    if (sample.time > restart_time) {
      first_tick_after = sample.time;
      break;
    }
  }
  ASSERT_GT(first_tick_after, 0.0);
  EXPECT_LE(first_tick_after, restart_time + interval + 1e-9);

  // The restore came from the checkpoint blob, not a cold start.
  std::string check_error;
  const auto events = ParsedTrace(*h);
  EXPECT_TRUE(CheckTraceLines(h->trace().BufferedLines(), &check_error))
      << check_error;
  bool restored = false;
  for (const auto& event : events) {
    if (event.StringOr("phase", "") != "recovery") continue;
    if (event.StringOr("why", "") == "restored") {
      restored = true;
      EXPECT_GT(event.NumberOr("ckpt_t", 0), 0.0);
    }
    EXPECT_NE(event.StringOr("why", ""), "no_ckpt");
    EXPECT_NE(event.StringOr("why", ""), "bad_ckpt");
  }
  EXPECT_TRUE(restored);
  EXPECT_EQ(h->metrics().counter("controller.recovery.restored")->value(),
            1u);

  // Zero duplicate migrations: restored placement cooldowns keep any
  // class from being re-migrated within the cooldown window, crash or
  // no crash.
  const double cooldown =
      h->retuner().config().placement_cooldown_intervals * interval;
  std::map<std::string, double> last_move;
  for (const auto& event : events) {
    if (event.StringOr("phase", "") != "action") continue;
    const std::string kind = event.StringOr("kind", "");
    if (kind != "class_rescheduled" && kind != "io_eviction") continue;
    const std::string desc = event.StringOr("desc", "");
    const double t = event.NumberOr("t", 0);
    auto it = last_move.find(desc);
    if (it != last_move.end()) {
      EXPECT_GE(t - it->second, cooldown) << desc << " re-applied at " << t;
    }
    last_move[desc] = t;
  }
}

TEST(RecoveryTest, CtlFaultRoundTripsDeterministically) {
  // The same crash/restart driven by the fault injector's ctl kind,
  // twice: byte-identical decision traces, and the controller
  // demonstrably went down and came back.
  auto run = [] {
    auto h = MakeCluster();
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(FaultSpec::Parse(
        "net@100:drop=0.1,duration=150;ctl@150:restart=30", &spec, &error))
        << error;
    h->InjectFaults(std::move(spec), /*seed=*/5);
    h->Start();
    h->RunFor(420);
    EXPECT_FALSE(h->controller_down());
    std::vector<std::string> lines = h->trace().BufferedLines();
    std::string check_error;
    EXPECT_TRUE(CheckTraceLines(lines, &check_error)) << check_error;
    return lines;
  };
  const auto a = run();
  EXPECT_TRUE(SameTrace(a, run()));
}

TEST(RecoveryTest, GuardSuppressesPlacementActionsDuringOutage) {
  // A total report blackout: with the guard on, confidence collapses
  // after the first missed interval, so no placement/demote action may
  // fire anywhere inside the outage window (shed/provisioning remain
  // allowed — they act on app-level latency, not per-replica stats).
  auto h = MakeCluster(/*guard=*/true);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse("net@100:drop=1,duration=120", &spec, &error))
      << error;
  h->InjectFaults(std::move(spec), /*seed=*/3);
  h->Start();
  h->RunFor(420);

  bool saw_losses = false;
  for (const auto& event : ParsedTrace(*h)) {
    const std::string phase = event.StringOr("phase", "");
    if (phase == "recovery" &&
        event.StringOr("why", "") == "report_lost") {
      saw_losses = true;
    }
    if (phase != "action") continue;
    const double t = event.NumberOr("t", 0);
    if (t <= 110 || t >= 220) continue;  // first loss lands by t=110
    const std::string kind = event.StringOr("kind", "");
    EXPECT_NE(kind, "class_rescheduled") << "at t=" << t;
    EXPECT_NE(kind, "io_eviction") << "at t=" << t;
    EXPECT_NE(kind, "demote") << "at t=" << t;
  }
  EXPECT_TRUE(saw_losses);
}

TEST(RecoveryTest, RestartWithoutCheckpointColdStarts) {
  // No EnableCheckpointing: a restart has no blob and must cold-start,
  // saying so in the trace.
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  tpcw->AddReplica(
      h.resources().CreateReplica(h.resources().servers()[0].get(), 8192));
  h.AddConstantClients(tpcw, 80, /*seed=*/3);
  h.Start();
  h.RunFor(100);
  ASSERT_TRUE(h.CrashController());
  h.RunFor(20);
  ASSERT_TRUE(h.RestartController());
  h.RunFor(60);
  bool cold = false;
  for (const auto& event : ParsedTrace(h)) {
    if (event.StringOr("phase", "") == "recovery" &&
        event.StringOr("why", "") == "no_ckpt") {
      cold = true;
    }
  }
  EXPECT_TRUE(cold);
  EXPECT_EQ(h.metrics().counter("controller.recovery.no_ckpt")->value(), 1u);
}

}  // namespace
}  // namespace fglb

// Deterministic replay: a capture of a live run, replayed through
// ReplayRunner, must reproduce the controller's whole decision trace
// byte-for-byte, for a clean scenario
// and for one running under an injected fault schedule; replayed MRC
// diagnoses (OPT regret included) must equal the live run's, also for a
// capture whose mrc spec names the retired streaming mode. Plus the
// what-if evaluator's agreement with the live controller's choice.

#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "replay/capture.h"
#include "replay/replayer.h"
#include "replay/what_if.h"
#include "scenarios/harness.h"
#include "trace_compare.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Mirrors fglb_sim's consolidation scenario: TPC-W steady plus RUBiS
// stepping in at duration/3 on a shared replica — the canonical
// memory-interference run where the retuner re-places the intruder.
void AssembleConsolidation(ClusterHarness* harness, double duration,
                           uint64_t seed) {
  harness->AddServers(4);
  PhysicalServer* first = harness->resources().servers()[0].get();
  Scheduler* tpcw = harness->AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness->resources().CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  rubis->AddReplica(shared);
  harness->AddConstantClients(tpcw, 120, seed);
  harness->AddClients(
      rubis,
      std::make_unique<StepLoad>(
          std::vector<std::pair<SimTime, double>>{{duration / 3, 45}}),
      seed + 1);
}

// Mirrors fglb_sim's chaos-replica scenario: consolidation topology
// plus a spare TPC-W replica so a crash degrades rather than zeroes
// capacity.
void AssembleChaos(ClusterHarness* harness, uint64_t seed) {
  harness->AddServers(4);
  PhysicalServer* first = harness->resources().servers()[0].get();
  PhysicalServer* second = harness->resources().servers()[1].get();
  Scheduler* tpcw = harness->AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness->resources().CreateReplica(first, 8192);
  Replica* spare = harness->resources().CreateReplica(second, 8192, 2);
  tpcw->AddReplica(shared);
  tpcw->AddReplica(spare);
  rubis->AddReplica(shared);
  harness->AddConstantClients(tpcw, 120, seed);
  harness->AddConstantClients(rubis, 45, seed + 1);
}

struct LiveRun {
  std::vector<std::string> trace_lines;
  size_t action_count = 0;
};

// Runs a live harness with capture attached, returns its buffered
// decision trace, and leaves the capture at `capture_path`.
LiveRun RunLive(const std::string& capture_path, const std::string& scenario,
                const std::string& fault_spec, uint64_t seed,
                uint64_t fault_seed, double duration) {
  SelectiveRetuner::Config config;
  if (!fault_spec.empty()) config.max_migrations_per_interval = 2;
  ClusterHarness harness(config);
  harness.trace().EnableBuffering();
  if (scenario == "consolidation") {
    AssembleConsolidation(&harness, duration, seed);
  } else {
    AssembleChaos(&harness, seed);
  }
  if (!fault_spec.empty()) {
    FaultSpec spec;
    std::string fault_error;
    EXPECT_TRUE(FaultSpec::Parse(fault_spec, &spec, &fault_error))
        << fault_error;
    harness.InjectFaults(std::move(spec), fault_seed);
  }

  CaptureWriter writer(&harness.sim());
  CaptureInfo info;
  info.seed = seed;
  info.fault_seed = fault_seed;
  info.scenario = scenario;
  info.fault_spec = fault_spec;
  info.duration_seconds = duration;
  info.interval_seconds = harness.retuner().config().interval_seconds;
  info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
  info.max_migrations_per_interval =
      harness.retuner().config().max_migrations_per_interval;
  std::string error;
  EXPECT_TRUE(writer.Open(capture_path, info, SnapshotTopology(harness),
                          &error))
      << error;
  harness.AttachRecorders(&writer, &writer);
  harness.Start();
  harness.RunFor(duration);
  EXPECT_TRUE(
      writer.Finalize(harness.retuner().actions(),
                      harness.retuner().samples()));

  LiveRun result;
  result.action_count = harness.retuner().actions().size();
  result.trace_lines = harness.trace().BufferedLines();
  return result;
}

// Replays `capture_path` strictly and returns the replayed run's
// buffered decision trace.
std::vector<std::string> RunReplay(const std::string& capture_path,
                                   size_t* actions_out) {
  Capture capture;
  std::string error;
  EXPECT_TRUE(ReadCapture(capture_path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  EXPECT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  EXPECT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);
  EXPECT_EQ(runner.source()->remaining(), 0u);
  *actions_out = runner.harness()->retuner().actions().size();
  return runner.harness()->trace().BufferedLines();
}

TEST(ReplayTest, ConsolidationReplayMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_replay_consolidation.fglbcap");
  const LiveRun live = RunLive(path, "consolidation", "", 1, 1, 300);
  // The run must actually exercise the controller, or byte-equality of
  // quiet traces would prove little.
  ASSERT_GT(live.action_count, 0u);

  size_t replay_actions = 0;
  const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
  EXPECT_EQ(replay_actions, live.action_count);
  EXPECT_TRUE(SameTrace(live.trace_lines, replayed));
  std::remove(path.c_str());
}

TEST(ReplayTest, ChaosReplayWithFaultSpecMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_replay_chaos.fglbcap");
  const std::string fault_spec =
      "crash@100:replica=1,restart=60;"
      "stats@150:replica=0,mode=partial,duration=60";
  const LiveRun live = RunLive(path, "chaos-replica", fault_spec, 1, 7, 300);
  ASSERT_GT(live.action_count, 0u);

  size_t replay_actions = 0;
  const std::vector<std::string> replayed = RunReplay(path, &replay_actions);
  EXPECT_EQ(replay_actions, live.action_count);
  EXPECT_TRUE(SameTrace(live.trace_lines, replayed));
  std::remove(path.c_str());
}

TEST(ReplayTest, ReplayedActionLogMatchesCaptureActions) {
  const std::string path = TempPath("fglb_replay_actions.fglbcap");
  RunLive(path, "consolidation", "", 3, 1, 300);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Run(&error)) << error;
  const auto& replayed = runner.harness()->retuner().actions();
  ASSERT_EQ(replayed.size(), capture.actions.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].time, capture.actions[i].t);
    EXPECT_EQ(static_cast<uint8_t>(replayed[i].kind), capture.actions[i].kind);
    EXPECT_EQ(replayed[i].app, capture.actions[i].app);
    EXPECT_EQ(replayed[i].description, capture.actions[i].description);
  }
  std::remove(path.c_str());
}

// Runs live consolidation with OPT regret on, capturing to
// `capture_path` under the info mrc spec `mrc_spec`, and returns the
// live controller's diagnoses.
std::vector<SelectiveRetuner::DiagnosisRecord> RunLiveWithRegret(
    const std::string& capture_path, const std::string& mrc_spec,
    double duration) {
  const uint64_t seed = 1;
  SelectiveRetuner::Config config;
  config.mrc.opt_regret = true;
  ClusterHarness harness(config);
  AssembleConsolidation(&harness, duration, seed);

  CaptureWriter writer(&harness.sim());
  CaptureInfo info;
  info.seed = seed;
  info.scenario = "consolidation";
  info.duration_seconds = duration;
  info.interval_seconds = harness.retuner().config().interval_seconds;
  info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
  info.mrc_spec = mrc_spec;
  std::string error;
  EXPECT_TRUE(writer.Open(capture_path, info, SnapshotTopology(harness),
                          &error))
      << error;
  harness.AttachRecorders(&writer, &writer);
  harness.Start();
  harness.RunFor(duration);
  EXPECT_TRUE(writer.Finalize(harness.retuner().actions(),
                              harness.retuner().samples()));
  return harness.retuner().diagnoses();
}

void ExpectSameDiagnoses(
    const std::vector<SelectiveRetuner::DiagnosisRecord>& live,
    const std::vector<SelectiveRetuner::DiagnosisRecord>& replayed) {
  ASSERT_EQ(live.size(), replayed.size());
  const auto same_profiles = [](const std::vector<ClassMemoryProfile>& x,
                                const std::vector<ClassMemoryProfile>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].key, y[i].key);
      EXPECT_EQ(x[i].params.total_memory_pages,
                y[i].params.total_memory_pages);
      EXPECT_EQ(x[i].params.acceptable_memory_pages,
                y[i].params.acceptable_memory_pages);
      EXPECT_EQ(x[i].params.ideal_miss_ratio, y[i].params.ideal_miss_ratio);
      EXPECT_EQ(x[i].params.acceptable_miss_ratio,
                y[i].params.acceptable_miss_ratio);
      EXPECT_GE(x[i].regret_vs_opt, 0.0);
      EXPECT_EQ(x[i].regret_vs_opt, y[i].regret_vs_opt);
    }
  };
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].time, replayed[i].time);
    EXPECT_EQ(live[i].app, replayed[i].app);
    EXPECT_EQ(live[i].replica_id, replayed[i].replica_id);
    same_profiles(live[i].memory.suspects, replayed[i].memory.suspects);
    same_profiles(live[i].memory.cleared, replayed[i].memory.cleared);
    EXPECT_EQ(live[i].memory.insufficient_data,
              replayed[i].memory.insufficient_data);
  }
}

TEST(ReplayTest, LiveAndReplayedRegretDiagnosesAreIdentical) {
  const std::string path = TempPath("fglb_replay_regret.fglbcap");
  MrcConfig mrc;
  mrc.opt_regret = true;
  const auto live = RunLiveWithRegret(path, MrcSpecString(mrc), 300);
  // The run must actually reach phase mrc, or identity over an empty
  // diagnosis list would prove nothing.
  ASSERT_FALSE(live.empty());

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.mrc_spec, "mode=recompute,opt_regret=1");
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  EXPECT_TRUE(runner.harness()->retuner().config().mrc.opt_regret);
  ASSERT_TRUE(runner.Run(&error)) << error;
  ExpectSameDiagnoses(live, runner.harness()->retuner().diagnoses());
  std::remove(path.c_str());
}

TEST(ReplayTest, LegacyStreamingModeCaptureBuildsUnderRecompute) {
  // Captures taken while a streaming estimator could replace window
  // recomputation say so in their info block; they must still build,
  // keep their regret setting, and replay through recomputation.
  const std::string path = TempPath("fglb_replay_legacy_streaming.fglbcap");
  RunLiveWithRegret(path, "mode=streaming,opt_regret=1", 60);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.mrc_spec, "mode=streaming,opt_regret=1");
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  EXPECT_TRUE(runner.harness()->retuner().config().mrc.opt_regret);
  ASSERT_TRUE(runner.Run(&error)) << error;
  std::remove(path.c_str());
}

TEST(ReplayTest, EmptyAndGuardOnStatsSpecsBuildTheDefaultChannel) {
  // Older captures wrote "" for the direct stats hand-off and
  // "guard=on" for the default channel; both must rebuild the default
  // channel, the one live runs now use.
  const std::string path = TempPath("fglb_replay_stats_spec.fglbcap");
  RunLive(path, "consolidation", "", 1, 1, 60);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.stats_spec, "");
  const StatsChannelConfig defaults;
  for (const char* spec : {"", "guard=on"}) {
    SCOPED_TRACE(std::string("stats_spec '") + spec + "'");
    capture.info.stats_spec = spec;
    ReplayRunner runner(&capture, ReplayBuildOptions{});
    ASSERT_TRUE(runner.Build(&error)) << error;
    const StatsChannelConfig& built =
        runner.harness()->stats_channel()->config();
    EXPECT_EQ(built.guard, defaults.guard);
    EXPECT_EQ(built.decay, defaults.decay);
    EXPECT_EQ(built.recover, defaults.recover);
    EXPECT_EQ(built.act_threshold, defaults.act_threshold);
    EXPECT_EQ(built.ToString(), "");
  }
  // A non-default spec still reaches the channel.
  capture.info.stats_spec = "guard=off";
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  EXPECT_FALSE(runner.harness()->stats_channel()->config().guard);
  std::remove(path.c_str());
}

TEST(ReplayTest, WhatIfRanksCandidatesAndAgreesWithLiveController) {
  const std::string path = TempPath("fglb_replay_whatif.fglbcap");
  RunLive(path, "consolidation", "", 1, 1, 300);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;

  WhatIfRunner runner(&capture, WhatIfOptions{});
  WhatIfResult result;
  ASSERT_TRUE(runner.Run(&result, &error)) << error;

  ASSERT_EQ(result.candidates.size(), 3u);
  // Ranked best-first, no-op anchored at score 0.
  for (size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_GE(result.candidates[i - 1].score, result.candidates[i].score);
  }
  for (const WhatIfCandidate& c : result.candidates) {
    if (c.name == "noop") {
      EXPECT_DOUBLE_EQ(c.score, 0.0);
    }
  }
  // On the consolidation interference window the re-placement must win
  // offline — and match what the live SelectiveRetuner actually did.
  EXPECT_EQ(result.candidates[0].name, "migrate");
  EXPECT_EQ(result.live_choice, "migrate");
  EXPECT_TRUE(result.agrees_with_live);
  std::remove(path.c_str());
}

TEST(ReplayTest, WhatIfRejectsNonFiniteWindowBeforeScheduling) {
  // A NaN window start used to reach Simulator::ScheduleAt as an event
  // time (an uncaught std::bad_alloc in release builds). Non-finite
  // bounds must fail cleanly instead, on a capture that does have a
  // violation window to evaluate.
  const std::string path = TempPath("fglb_replay_whatif_nan.fglbcap");
  RunLive(path, "consolidation", "", 1, 1, 300);
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [start, horizon] :
       std::vector<std::pair<double, double>>{
           {nan, 60}, {inf, 60}, {-inf, 60}, {-1, inf}, {-1, nan}}) {
    SCOPED_TRACE("window_start " + std::to_string(start) + " horizon " +
                 std::to_string(horizon));
    WhatIfOptions options;
    options.window_start = start;
    options.horizon_seconds = horizon;
    WhatIfRunner runner(&capture, options);
    WhatIfResult result;
    error.clear();
    EXPECT_FALSE(runner.Run(&result, &error));
    EXPECT_NE(error.find("finite"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

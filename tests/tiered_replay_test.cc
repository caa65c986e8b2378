// Tiered capture→replay: a run whose engines carry a second-tier
// cache must replay its whole decision trace byte-for-byte — demote
// actions and the phase=mrc events' per-tier fields included — and
// the TierConfig must round-trip through the
// FGLBCAP1 info block so the replayed engines rebuild the exact same
// buffer hierarchy before any replica exists.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "replay/capture.h"
#include "replay/replayer.h"
#include "scenarios/harness.h"
#include "storage/tiered_buffer_pool.h"
#include "trace_compare.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Mirrors fglb_sim's tier-thrash scenario: the consolidation squeeze
// (TPC-W steady, RUBiS stepping in hard on a shared replica) on
// engines that carry a second tier, so the controller's cheapest
// workable rung is the demote instead of the reschedule. The engine
// defaults must be set before the first replica exists — a pool's
// hierarchy is built in its constructor.
void AssembleTierThrash(ClusterHarness* harness, double duration,
                        uint64_t seed, const TierConfig& tier) {
  harness->AddServers(4);
  harness->resources().set_engine_defaults(tier);
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
          std::vector<std::pair<SimTime, double>>{{duration / 3, 60}}),
      seed + 1);
}

TierConfig DefaultTier() {
  TierConfig tier;
  tier.pages = 16384;
  return tier;
}

struct LiveTieredRun {
  std::vector<std::string> trace_lines;
  size_t action_count = 0;
};

// Runs a live tiered harness with capture attached, returns its
// buffered decision trace, and leaves the capture at `capture_path`.
LiveTieredRun RunLive(const std::string& capture_path,
                      const std::string& fault_spec, uint64_t seed,
                      uint64_t fault_seed, double duration,
                      const TierConfig& tier) {
  ClusterHarness harness;
  harness.trace().EnableBuffering();
  AssembleTierThrash(&harness, duration, seed, tier);
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
  info.scenario = fault_spec.empty() ? "tier-thrash" : "tier-fail";
  info.fault_spec = fault_spec;
  info.duration_seconds = duration;
  info.interval_seconds = harness.retuner().config().interval_seconds;
  info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
  info.max_migrations_per_interval =
      harness.retuner().config().max_migrations_per_interval;
  info.tier_spec = tier.ToString();
  std::string error;
  EXPECT_TRUE(
      writer.Open(capture_path, info, SnapshotTopology(harness), &error))
      << error;
  harness.AttachRecorders(&writer, &writer);
  harness.Start();
  harness.RunFor(duration);
  EXPECT_TRUE(writer.Finalize(harness.retuner().actions(),
                              harness.retuner().samples()));

  LiveTieredRun result;
  result.action_count = harness.retuner().actions().size();
  result.trace_lines = harness.trace().BufferedLines();
  return result;
}

// Replays `capture_path` strictly and returns the same record.
LiveTieredRun RunReplay(const std::string& capture_path) {
  Capture capture;
  std::string error;
  EXPECT_TRUE(ReadCapture(capture_path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  EXPECT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  EXPECT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);

  LiveTieredRun result;
  result.action_count = runner.harness()->retuner().actions().size();
  result.trace_lines = runner.harness()->trace().BufferedLines();
  return result;
}

TEST(TieredReplayTest, TierThrashReplayMatchesLiveActionAndMrcTraces) {
  const std::string path = TempPath("fglb_tiered_replay_thrash.fglbcap");
  const LiveTieredRun live = RunLive(path, "", 1, 1, 450, DefaultTier());
  // The run must take the new rung, or byte-equality proves nothing
  // about it.
  ASSERT_GT(live.action_count, 0u);
  ASSERT_TRUE(AnyLineContains(live.trace_lines, "\"kind\":\"demote\""));
  // Tiered engines stamp their tier state on every mrc diagnosis.
  ASSERT_TRUE(AnyLineContains(live.trace_lines, "\"tier2_pages\""));

  const LiveTieredRun replayed = RunReplay(path);
  EXPECT_EQ(replayed.action_count, live.action_count);
  EXPECT_TRUE(SameTrace(live.trace_lines, replayed.trace_lines));
  std::remove(path.c_str());
}

TEST(TieredReplayTest, TierFailReplayMatchesLiveActionTrace) {
  const std::string path = TempPath("fglb_tiered_replay_fail.fglbcap");
  // fglb_sim's default tier-fail schedule for a 450s run: the SSD dies
  // cold mid-run, recovers, then later merely degrades.
  const std::string fault_spec =
      "tier@150:replica=0,mode=fail,duration=75;"
      "tier@300:replica=0,mode=degrade,factor=10,duration=75";
  const LiveTieredRun live =
      RunLive(path, fault_spec, 1, 7, 450, DefaultTier());
  ASSERT_GT(live.action_count, 0u);

  const LiveTieredRun replayed = RunReplay(path);
  EXPECT_EQ(replayed.action_count, live.action_count);
  EXPECT_TRUE(SameTrace(live.trace_lines, replayed.trace_lines));
  std::remove(path.c_str());
}

TEST(TieredReplayTest, TierConfigRoundTripsThroughCaptureInfoBlock) {
  const std::string path = TempPath("fglb_tiered_replay_info.fglbcap");
  TierConfig tier;
  tier.pages = 8192;
  tier.read_us = 250;
  tier.demote = true;

  {
    ClusterHarness harness;
    AssembleTierThrash(&harness, 60, /*seed=*/3, tier);
    CaptureWriter writer(&harness.sim());
    CaptureInfo info;
    info.seed = 3;
    info.fault_seed = 1;
    info.scenario = "tier-thrash";
    info.duration_seconds = 60;
    info.interval_seconds = harness.retuner().config().interval_seconds;
    info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
    info.max_migrations_per_interval =
        harness.retuner().config().max_migrations_per_interval;
    info.tier_spec = tier.ToString();
    std::string error;
    ASSERT_TRUE(writer.Open(path, info, SnapshotTopology(harness), &error))
        << error;
    harness.AttachRecorders(&writer, &writer);
    harness.Start();
    harness.RunFor(60);
    ASSERT_TRUE(writer.Finalize(harness.retuner().actions(),
                                harness.retuner().samples()));
  }

  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.tier_spec, "pages=8192,read_us=250,demote=1");
  EXPECT_EQ(capture.info.replacement_spec, "");

  // Building the replay re-applies the tier spec as the engine default
  // before any replica exists, so the rebuilt engines carry the same
  // hierarchy.
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  const TierConfig& rebuilt = runner.harness()->resources().engine_tier();
  EXPECT_EQ(rebuilt.pages, 8192u);
  EXPECT_DOUBLE_EQ(rebuilt.read_us, 250);
  EXPECT_TRUE(rebuilt.demote);
  std::remove(path.c_str());
}

TEST(TieredReplayTest, NonLruReplacementCaptureFailsBuildNamingThePolicy) {
  // Engines run LRU only. A capture whose info block names another DRAM
  // policy (from when CLOCK and ARC could run in the loop) cannot be
  // reproduced, and Build must say which policy it met.
  const std::string path = TempPath("fglb_tiered_replay_arc.fglbcap");
  {
    ClusterHarness harness;
    AssembleTierThrash(&harness, 60, /*seed=*/3, DefaultTier());
    CaptureWriter writer(&harness.sim());
    CaptureInfo info;
    info.scenario = "tier-thrash";
    info.duration_seconds = 60;
    info.interval_seconds = harness.retuner().config().interval_seconds;
    info.tier_spec = DefaultTier().ToString();
    info.replacement_spec = "arc";
    std::string error;
    ASSERT_TRUE(writer.Open(path, info, SnapshotTopology(harness), &error))
        << error;
    ASSERT_TRUE(writer.Finalize({}, {}));
  }
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  EXPECT_EQ(capture.info.replacement_spec, "arc");
  {
    ReplayRunner runner(&capture, ReplayBuildOptions{});
    EXPECT_FALSE(runner.Build(&error));
    EXPECT_NE(error.find("'arc'"), std::string::npos) << error;
  }
  capture.info.replacement_spec = "clock";
  {
    ReplayRunner runner(&capture, ReplayBuildOptions{});
    EXPECT_FALSE(runner.Build(&error));
    EXPECT_NE(error.find("'clock'"), std::string::npos) << error;
  }
  // "lru" names the policy the engines run: the same run as "".
  capture.info.replacement_spec = "lru";
  {
    ReplayRunner runner(&capture, ReplayBuildOptions{});
    EXPECT_TRUE(runner.Build(&error)) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fglb

// Byte-identical replay at scale: a live overload run at 10x the
// default client population, driven by the batched-cohort client
// emulator, captured and replayed through ReplayRunner. The replayed
// run's whole decision trace, admission events included, must match
// the live run byte for byte — the cohort fast path and the
// calendar-queue kernel change how events are produced, not what the
// cluster does, and the capture/replay contract has to survive both.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_check.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "scenarios/harness.h"
#include "trace_compare.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

constexpr double kDurationSeconds = 240;
// fglb_sim's overload scenario at --clients-scale=10: 7.5 x 120
// default TPC-W clients, times ten. Over the 10k auto-cohort
// threshold is not required — the test forces cohorts on.
constexpr double kClients = 9000;
constexpr uint64_t kSeed = 11;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The buffered trace, checked against the schema on the way out.
std::vector<std::string> CheckedTrace(ClusterHarness& harness) {
  std::vector<std::string> lines = harness.trace().BufferedLines();
  std::string error;
  EXPECT_TRUE(CheckTraceLines(lines, &error)) << error;
  return lines;
}

TEST(ScaleReplayTest, CohortOverloadAt10xReplaysByteIdentically) {
  const std::string path = TempPath("fglb_scale_replay_overload.fglbcap");

  // --- live: overload topology at 10x, cohorts on, capture attached.
  std::vector<std::string> live;
  uint64_t live_completed = 0;
  {
    ClusterHarness harness;
    harness.trace().EnableBuffering();
    // Mirrors fglb_sim --scenario=overload --clients-scale=10: the
    // default 4-server pool, one TPC-W replica, admission on.
    harness.AddServers(4);
    Scheduler* tpcw = harness.AddApplication(MakeTpcw());
    tpcw->AddReplica(harness.resources().CreateReplica(
        harness.resources().servers()[0].get(), 8192));
    AdmissionConfig admission_config;
    harness.EnableAdmission(admission_config);
    ClientEmulator::Options emu;
    emu.cohort = true;
    harness.AddConstantClients(tpcw, kClients, kSeed, emu);

    CaptureWriter writer(&harness.sim());
    CaptureInfo info;
    info.seed = kSeed;
    info.scenario = "overload";
    info.duration_seconds = kDurationSeconds;
    info.interval_seconds = harness.retuner().config().interval_seconds;
    info.mrc_sample_rate = harness.retuner().config().mrc.sample_rate;
    info.max_migrations_per_interval =
        harness.retuner().config().max_migrations_per_interval;
    info.admission_spec = admission_config.ToString();
    std::string error;
    ASSERT_TRUE(writer.Open(path, info, SnapshotTopology(harness), &error))
        << error;
    harness.AttachRecorders(&writer, &writer);
    harness.Start();
    harness.RunFor(kDurationSeconds);
    ASSERT_TRUE(writer.Finalize(harness.retuner().actions(),
                                harness.retuner().samples()));
    live_completed = tpcw->total_completed();
    live = CheckedTrace(harness);
  }
  // The run must actually overload the replica and trip admission, or
  // byte-equality would prove nothing about the admission path.
  ASSERT_GT(live_completed, 0u);
  ASSERT_TRUE(AnyLineContains(live, "\"phase\":\"admission\""));

  // --- replay: strict mode, zero generated fallbacks allowed.
  Capture capture;
  std::string error;
  ASSERT_TRUE(ReadCapture(path, &capture, &error)) << error;
  ReplayRunner runner(&capture, ReplayBuildOptions{});
  ASSERT_TRUE(runner.Build(&error)) << error;
  runner.harness()->trace().EnableBuffering();
  ASSERT_TRUE(runner.Run(&error)) << error;
  EXPECT_EQ(runner.source()->misses(), 0u);
  EXPECT_EQ(runner.source()->remaining(), 0u);
  EXPECT_TRUE(SameTrace(live, CheckedTrace(*runner.harness())));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fglb

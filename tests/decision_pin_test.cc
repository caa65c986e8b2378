// Fault-free controller decisions, pinned. Consolidation and
// tier-thrash runs (fglb_sim's assembly, populations and 900 s default
// duration) must take exactly the recorded action sequence: the count
// plus an FNV-1a digest of every action formatted with a hex-float
// time. The values were recorded when the controller still read
// interval stats through a direct engine hand-off; the lossless
// StatsChannel that replaced it must decide identically. The whole
// buffered decision trace is pinned the same way (line count plus an
// FNV-1a digest of every line and its newline); it was recorded from
// traces that still carried the wall-clock "mono_us"/"dur_us" fields,
// with those two fields deleted.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenarios/harness.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

constexpr double kDuration = 900;
constexpr uint64_t kSeed = 1;

// The consolidation squeeze: TPC-W steady on a shared replica, RUBiS
// stepping in at a third of the run. `rubis_clients` is 45 for
// consolidation and 60 (4/3 x 45) for tier-thrash, as in fglb_sim.
void AssembleSqueeze(ClusterHarness* harness, double rubis_clients) {
  harness->AddServers(4);
  PhysicalServer* first = harness->resources().servers()[0].get();
  Scheduler* tpcw = harness->AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness->AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness->resources().CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  rubis->AddReplica(shared);
  harness->AddConstantClients(tpcw, 120, kSeed);
  harness->AddClients(
      rubis,
      std::make_unique<StepLoad>(std::vector<std::pair<SimTime, double>>{
          {kDuration / 3, rubis_clients}}),
      kSeed + 1);
}

struct Pinned {
  size_t count = 0;
  uint64_t digest = 0;
};

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Pinned Digest(const std::vector<SelectiveRetuner::Action>& actions) {
  uint64_t h = kFnvOffsetBasis;
  for (const SelectiveRetuner::Action& action : actions) {
    char time[64];
    std::snprintf(time, sizeof(time), "%a", action.time);
    h = Fnv1a(std::string(time) + " " +
                  SelectiveRetuner::ActionKindName(action.kind) + " " +
                  std::to_string(action.app) + " " + action.description +
                  "\n",
              h);
  }
  return Pinned{actions.size(), h};
}

Pinned TraceDigest(const std::vector<std::string>& lines) {
  uint64_t h = kFnvOffsetBasis;
  for (const std::string& line : lines) h = Fnv1a(line + "\n", h);
  return Pinned{lines.size(), h};
}

TEST(FaultFreeDecisionsTest, ConsolidationActionSequenceIsPinned) {
  ClusterHarness harness;
  harness.trace().EnableBuffering();
  AssembleSqueeze(&harness, 45);
  harness.Start();
  harness.RunFor(kDuration);
  // quota_enforced, io_provision, io_eviction, cpu_release.
  const Pinned pinned = Digest(harness.retuner().actions());
  EXPECT_EQ(pinned.count, 4u);
  EXPECT_EQ(pinned.digest, 13878303171385153601ull);
  const Pinned trace = TraceDigest(harness.trace().BufferedLines());
  EXPECT_EQ(trace.count, 31u);
  EXPECT_EQ(trace.digest, 16244041182367557011ull);
}

TEST(FaultFreeDecisionsTest, TierThrashActionSequenceIsPinned) {
  ClusterHarness harness;
  harness.trace().EnableBuffering();
  TierConfig tier;
  tier.pages = 16384;
  harness.resources().set_engine_defaults(tier);
  AssembleSqueeze(&harness, 4.0 / 3.0 * 45);
  harness.Start();
  harness.RunFor(kDuration);
  // demote, io_eviction.
  const Pinned pinned = Digest(harness.retuner().actions());
  EXPECT_EQ(pinned.count, 2u);
  EXPECT_EQ(pinned.digest, 3668906474893617339ull);
  const Pinned trace = TraceDigest(harness.trace().BufferedLines());
  EXPECT_EQ(trace.count, 35u);
  EXPECT_EQ(trace.digest, 7049641237638443187ull);
}

}  // namespace
}  // namespace fglb

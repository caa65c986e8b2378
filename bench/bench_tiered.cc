// Tiered buffer pool: (a) two-level (DRAM + SSD) placement vs a
// DRAM-only pool of equal hardware cost, replaying real per-class
// traces through real pools and scoring each arm with the blended
// latency model the quota planner optimizes; (b) the demote rung vs
// the migration rung on the tier-thrash scenario — both restore the
// squeezed TPC-W SLA, but the demote does it without taking a second
// machine. Emits BENCH_tiered.json.

#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "scenarios/harness.h"
#include "storage/partitioned_buffer_pool.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

// The blended latency model's three service times (us): DRAM hit, SSD
// tier hit (TierConfig default), disk random read (DiskModel default).
constexpr double kMemUs = 1.0;
constexpr double kSsdUs = 100.0;
constexpr double kDiskUs = 2000.0;

// Hardware cost ratio: one DRAM page buys this many SSD pages (the
// $/GB gap the second tier exists to exploit).
constexpr uint64_t kDramCostRatio = 10;

// --- part (a): equal-cost placement -----------------------------------

struct PlacementOutcome {
  double blended_us = 0;  // mean per-access latency under the model
  double dram_hit = 0;
  double tier2_hit = 0;
  double miss = 0;
  double wall_ms = 0;
};

// Replays `trace` through a DRAM pool of `dram_pages` backed (when
// `tier2_pages` > 0) by an exclusive second tier fed by the DRAM pool's
// evictions — the engine's wiring, minus the engine.
PlacementOutcome ReplayPlacement(const std::vector<PageId>& trace,
                                 uint64_t dram_pages, uint64_t tier2_pages) {
  const auto start = std::chrono::steady_clock::now();
  PartitionedBufferPool dram(dram_pages);
  std::unique_ptr<TieredBufferPool> tier;
  if (tier2_pages > 0) {
    TierConfig config;
    config.pages = tier2_pages;
    config.read_us = kSsdUs;
    tier = std::make_unique<TieredBufferPool>(config);
    dram.SetEvictionListener([&tier](PartitionKey key, PageId page) {
      tier->Demote(key, page);
    });
  }

  uint64_t dram_hits = 0, tier2_hits = 0, misses = 0;
  for (PageId page : trace) {
    if (dram.Access(kSharedPartition + 1, page)) {
      ++dram_hits;
    } else if (tier != nullptr &&
               tier->PromoteHit(kSharedPartition + 1, page)) {
      ++tier2_hits;  // Access already brought the page into DRAM
    } else {
      ++misses;
    }
  }

  PlacementOutcome out;
  const double n = static_cast<double>(trace.size());
  out.dram_hit = dram_hits / n;
  out.tier2_hit = tier2_hits / n;
  out.miss = misses / n;
  out.blended_us =
      out.dram_hit * kMemUs + out.tier2_hit * kSsdUs + out.miss * kDiskUs;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

// --- part (b): demote vs migrate on tier-thrash -----------------------

struct ArmOutcome {
  double tpcw_latency = 0;
  int tpcw_sla_violations = 0;
  double rubis_latency = 0;
  int machines = 0;
  int demotes = 0;
  int reschedules = 0;
  double wall_ms = 0;
};

// The tier-thrash squeeze (TPC-W steady, RUBiS stepping to 60 clients
// at t=150 on a shared 8192-page replica), with the controller free to
// act. `tiered` arms the engines with the default 16384-page second
// tier, making the demote the cheapest workable rung; tierless arms
// leave the controller its classic answer, rescheduling the intruder
// onto another machine.
ArmOutcome RunThrashArm(bool tiered, double duration) {
  const auto start = std::chrono::steady_clock::now();
  ClusterHarness harness;
  harness.AddServers(4);
  TierConfig tier;
  if (tiered) tier.pages = 16384;
  harness.resources().set_engine_defaults(tier);
  PhysicalServer* first = harness.resources().servers()[0].get();
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness.AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness.resources().CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  rubis->AddReplica(shared);
  harness.AddConstantClients(tpcw, 120, /*seed=*/1);
  harness.AddClients(
      rubis,
      std::make_unique<StepLoad>(
          std::vector<std::pair<SimTime, double>>{{duration / 3, 60}}),
      /*seed=*/2);
  harness.Start();
  harness.RunFor(duration);

  ArmOutcome out;
  // The tail window: well after the step and the controller's answer.
  const auto ts = harness.Summarize(tpcw->app().id, 2 * duration / 3,
                                    duration);
  const auto rs = harness.Summarize(rubis->app().id, 2 * duration / 3,
                                    duration);
  out.tpcw_latency = ts.avg_latency;
  out.tpcw_sla_violations = ts.sla_violations;
  out.rubis_latency = rs.avg_latency;
  for (const auto& action : harness.retuner().actions()) {
    if (action.kind == SelectiveRetuner::ActionKind::kDemote) ++out.demotes;
    if (action.kind == SelectiveRetuner::ActionKind::kClassRescheduled) {
      ++out.reschedules;
    }
  }
  std::set<const PhysicalServer*> servers;
  for (Replica* r : tpcw->replicas()) servers.insert(&r->server());
  for (Replica* r : rubis->replicas()) servers.insert(&r->server());
  out.machines = static_cast<int>(servers.size());
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fglb::bench;
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_tiered.json";
  BenchJsonWriter json;

  PrintHeader("Tiered buffer pool: two-level placement and the demote rung");

  // ---- (a) two-level vs DRAM-only at equal hardware cost ----
  // Budget: 4096 DRAM-page-equivalents. The DRAM-only arm spends it
  // all on DRAM; the two-level arm converts half into 10x the SSD
  // pages. Workloads are the paper's per-class traces.
  PrintSection("equal-cost placement: blended mean latency (us/access)");
  const ApplicationSpec tpcw = MakeTpcw();
  const ApplicationSpec rubis = MakeRubis();
  struct Workload {
    const char* label;
    const char* slug;
    std::vector<PageId> trace;
  };
  const Workload workloads[] = {
      {"RUBiS SearchItemsByRegion (scan)", "sibr",
       WindowTrace(*rubis.FindTemplate(kRubisSearchItemsByRegion), 60000,
                   9001)},
      {"TPC-W BestSeller (indexed)", "bestseller",
       WindowTrace(*tpcw.FindTemplate(kTpcwBestSeller), 60000, 9002)},
      {"TPC-W ProductDetail", "productdetail",
       WindowTrace(*tpcw.FindTemplate(kTpcwProductDetail), 60000, 9003)},
  };
  constexpr uint64_t kBudget = 4096;  // DRAM-page-equivalents
  const uint64_t two_level_dram = kBudget / 2;
  const uint64_t two_level_tier = (kBudget - two_level_dram) * kDramCostRatio;

  std::printf("%-34s  %11s  %11s  %7s\n", "workload", "dram_only",
              "two_level", "win");
  int wins = 0;
  double sibr_ratio = 0;
  for (const Workload& w : workloads) {
    const PlacementOutcome dram_only = ReplayPlacement(w.trace, kBudget, 0);
    const PlacementOutcome two_level =
        ReplayPlacement(w.trace, two_level_dram, two_level_tier);
    const bool win = two_level.blended_us < dram_only.blended_us;
    wins += win ? 1 : 0;
    std::printf("%-34s  %11.2f  %11.2f  %7s\n", w.label,
                dram_only.blended_us, two_level.blended_us,
                win ? "yes" : "no");
    json.Add(std::string("dram_only_") + w.slug, dram_only.wall_ms,
             static_cast<double>(w.trace.size()));
    json.Add(std::string("two_level_") + w.slug, two_level.wall_ms,
             static_cast<double>(w.trace.size()));
    json.AddField(std::string("dram_only_blended_us_") + w.slug,
                  dram_only.blended_us);
    json.AddField(std::string("two_level_blended_us_") + w.slug,
                  two_level.blended_us);
    if (std::string(w.slug) == "sibr" && two_level.blended_us > 0) {
      sibr_ratio = dram_only.blended_us / two_level.blended_us;
    }
  }
  json.AddField("equal_cost_wins", wins);
  json.AddField("sibr_speedup", sibr_ratio);

  // ---- (b) demote vs migrate on tier-thrash ----
  PrintSection("tier-thrash: demote rung vs migration rung");
  const double duration = 450;
  const ArmOutcome demote = RunThrashArm(/*tiered=*/true, duration);
  const ArmOutcome migrate = RunThrashArm(/*tiered=*/false, duration);
  std::printf("%-26s  %10s  %8s  %11s  %8s  %7s  %11s\n", "arm",
              "tpcw_lat_s", "tpcw_sla", "rubis_lat_s", "machines", "demotes",
              "reschedules");
  auto row = [](const char* label, const ArmOutcome& o) {
    std::printf("%-26s  %10.3f  %8d  %11.3f  %8d  %7d  %11d\n", label,
                o.tpcw_latency, o.tpcw_sla_violations, o.rubis_latency,
                o.machines, o.demotes, o.reschedules);
  };
  row("demote (tiered)", demote);
  row("migrate (tierless)", migrate);
  json.Add("thrash_demote_arm", demote.wall_ms, 0);
  json.Add("thrash_migrate_arm", migrate.wall_ms, 0);
  json.AddField("demote_tail_sla_violations", demote.tpcw_sla_violations);
  json.AddField("demote_machines", demote.machines);
  json.AddField("migrate_machines", migrate.machines);
  json.AddField("demote_actions", demote.demotes);
  json.AddField("migrate_reschedules", migrate.reschedules);

  PrintSection("shape check");
  const bool equal_cost_wins = wins >= 1;
  const bool demote_fired = demote.demotes >= 1 && demote.reschedules == 0;
  const bool migrate_fired = migrate.reschedules >= 1;
  const bool demote_restores_sla = demote.tpcw_sla_violations == 0;
  const bool demote_cheaper = demote.machines < migrate.machines;
  std::printf("two-level beats DRAM-only at equal cost on >=1 workload: "
              "%s (%d of 3)\n",
              equal_cost_wins ? "yes" : "no", wins);
  std::printf("tiered arm answers the squeeze with the demote rung: %s\n",
              demote_fired ? "yes" : "no");
  std::printf("tierless arm answers it by rescheduling: %s\n",
              migrate_fired ? "yes" : "no");
  std::printf("demote restores the TPC-W SLA in the tail window: %s\n",
              demote_restores_sla ? "yes" : "no");
  std::printf("demote holds the cluster to fewer machines (%d vs %d): %s\n",
              demote.machines, migrate.machines,
              demote_cheaper ? "yes" : "no");
  const bool shape_holds = equal_cost_wins && demote_fired && migrate_fired &&
                           demote_restores_sla && demote_cheaper;
  std::printf("shape %s\n", shape_holds ? "HOLDS" : "DOES NOT HOLD");
  json.AddField("shape_holds", shape_holds ? 1 : 0);
  json.WriteTo(json_path);
  return shape_holds ? 0 : 1;
}

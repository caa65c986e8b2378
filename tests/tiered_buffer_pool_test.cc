// Second-tier block cache invariants: TierConfig's canonical spec
// string round-trips and rejects malformed input, the pool's
// demote/promote cycle is exclusive (a promoted page leaves the tier),
// quotas partition the tier like the DRAM pool, the fault hooks drop
// residency cold, and the two-level quota planner jumps LRU cliffs a
// fixed-granule greedy would starve.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/quota_planner.h"
#include "mrc/miss_ratio_curve.h"
#include "storage/partitioned_buffer_pool.h"
#include "storage/tiered_buffer_pool.h"
#include "workload/query_class.h"

namespace fglb {
namespace {

TEST(TierConfigTest, DisabledTierEncodesAsEmptyString) {
  TierConfig config;  // pages=0: tier absent
  EXPECT_FALSE(config.enabled());
  EXPECT_EQ(config.ToString(), "");

  TierConfig parsed;
  parsed.pages = 123;  // must be reset by parsing ""
  std::string error;
  ASSERT_TRUE(TierConfig::Parse("", &parsed, &error)) << error;
  EXPECT_FALSE(parsed.enabled());
}

TEST(TierConfigTest, RoundTripsThroughString) {
  TierConfig config;
  config.pages = 16384;
  config.read_us = 62.5;
  config.demote = false;
  const std::string text = config.ToString();
  EXPECT_EQ(text, "pages=16384,read_us=62.5,demote=0");

  TierConfig parsed;
  std::string error;
  ASSERT_TRUE(TierConfig::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.pages, 16384u);
  EXPECT_DOUBLE_EQ(parsed.read_us, 62.5);
  EXPECT_FALSE(parsed.demote);
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(TierConfigTest, ParseAcceptsKeysInAnyOrder) {
  TierConfig parsed;
  std::string error;
  ASSERT_TRUE(
      TierConfig::Parse("demote=1,read_us=250,pages=4096", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.pages, 4096u);
  EXPECT_DOUBLE_EQ(parsed.read_us, 250);
  EXPECT_TRUE(parsed.demote);
}

TEST(TierConfigTest, ParseRejectsMalformedSpecs) {
  TierConfig parsed;
  std::string error;
  EXPECT_FALSE(TierConfig::Parse("pages=abc", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("pages", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("pages=10.5", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("pages=-5", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("read_us=0", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("demote=2", &parsed, &error));
  EXPECT_FALSE(TierConfig::Parse("bogus=1", &parsed, &error));
}

TierConfig MakeTier(uint64_t pages, double read_us = 100.0,
                    bool demote = true) {
  TierConfig config;
  config.pages = pages;
  config.read_us = read_us;
  config.demote = demote;
  return config;
}

TEST(TieredBufferPoolTest, PromoteHitRemovesThePage) {
  TieredBufferPool tier(MakeTier(128));
  const PartitionKey key = MakeClassKey(1, 4);
  tier.Demote(key, 42);
  EXPECT_EQ(tier.demotions(), 1u);
  EXPECT_TRUE(tier.Contains(key, 42));

  // The hit promotes the page back to DRAM; the tier copy is gone
  // (exclusive hierarchy), so a second lookup is a miss.
  EXPECT_TRUE(tier.PromoteHit(key, 42));
  EXPECT_FALSE(tier.Contains(key, 42));
  EXPECT_FALSE(tier.PromoteHit(key, 42));
  EXPECT_EQ(tier.promotions(), 1u);
  EXPECT_EQ(tier.tier_misses(), 1u);
}

TEST(TieredBufferPoolTest, QuotasPartitionTheTier) {
  TieredBufferPool tier(MakeTier(128));
  const PartitionKey hot = MakeClassKey(2, 4);
  const PartitionKey other = MakeClassKey(1, 1);

  ASSERT_TRUE(tier.SetQuota(hot, 64));
  EXPECT_EQ(tier.QuotaOf(hot), 64u);
  EXPECT_EQ(tier.dedicated_total(), 64u);
  // Combined dedicated quotas cannot exceed the device.
  EXPECT_FALSE(tier.SetQuota(other, 96));
  ASSERT_TRUE(tier.SetQuota(other, 64));

  // A demote lands in the owner's dedicated partition: invisible to
  // other keys, which only see their own partition plus the shared
  // region.
  tier.Demote(hot, 7);
  EXPECT_TRUE(tier.Contains(hot, 7));
  EXPECT_FALSE(tier.Contains(other, 7));
  EXPECT_FALSE(tier.PromoteHit(other, 7));
  EXPECT_TRUE(tier.PromoteHit(hot, 7));

  tier.DropQuota(hot);
  EXPECT_EQ(tier.QuotaOf(hot), 0u);
  EXPECT_EQ(tier.dedicated_total(), 64u);
}

TEST(TieredBufferPoolTest, SharedRegionEvictsLeastRecentlyDemoted) {
  TieredBufferPool tier(MakeTier(4));
  const PartitionKey key = MakeClassKey(1, 1);
  for (PageId page = 0; page < 6; ++page) tier.Demote(key, page);
  EXPECT_EQ(tier.demotions(), 6u);
  EXPECT_EQ(tier.resident_pages(), 4u);
  // LRU admission queue: the oldest cast-offs fell out.
  EXPECT_FALSE(tier.Contains(key, 0));
  EXPECT_FALSE(tier.Contains(key, 1));
  EXPECT_TRUE(tier.Contains(key, 2));
  EXPECT_TRUE(tier.Contains(key, 5));
}

TEST(TieredBufferPoolTest, DemoteOffDropsEveryDemotion) {
  TieredBufferPool tier(MakeTier(128, 100.0, /*demote=*/false));
  const PartitionKey key = MakeClassKey(1, 1);
  tier.Demote(key, 42);
  EXPECT_EQ(tier.demotions(), 0u);
  EXPECT_EQ(tier.dropped_demotions(), 1u);
  EXPECT_EQ(tier.resident_pages(), 0u);
  EXPECT_FALSE(tier.PromoteHit(key, 42));
}

TEST(TieredBufferPoolTest, FailedTierServesNothingAndRecoversCold) {
  TieredBufferPool tier(MakeTier(128));
  const PartitionKey key = MakeClassKey(1, 1);
  for (PageId page = 0; page < 3; ++page) tier.Demote(key, page);
  ASSERT_EQ(tier.resident_pages(), 3u);

  // Device loss: residency is gone immediately, lookups miss, and
  // demotions are dropped on the floor.
  tier.SetFailed(true);
  EXPECT_TRUE(tier.failed());
  EXPECT_EQ(tier.resident_pages(), 0u);
  EXPECT_FALSE(tier.Contains(key, 0));
  EXPECT_FALSE(tier.PromoteHit(key, 0));
  tier.Demote(key, 99);
  EXPECT_EQ(tier.dropped_demotions(), 1u);

  // Recovery is cold: nothing resident until new demotions arrive.
  tier.SetFailed(false);
  EXPECT_EQ(tier.resident_pages(), 0u);
  tier.Demote(key, 99);
  EXPECT_TRUE(tier.Contains(key, 99));
}

TEST(TieredBufferPoolTest, LatencyFactorScalesHitServiceTime) {
  TieredBufferPool tier(MakeTier(128, 250.0));
  EXPECT_DOUBLE_EQ(tier.HitServiceSeconds(), 250e-6);
  tier.SetLatencyFactor(10);
  EXPECT_DOUBLE_EQ(tier.HitServiceSeconds(), 2500e-6);
  tier.SetLatencyFactor(1);
  EXPECT_DOUBLE_EQ(tier.HitServiceSeconds(), 250e-6);
}

// Resident pages of `level` among `pages`: a count plus an FNV-1a
// digest of the resident ids in `pages` order.
template <typename Level>
std::pair<uint64_t, uint64_t> Residency(const Level& level, PartitionKey key,
                                        const std::vector<PageId>& pages) {
  uint64_t count = 0;
  uint64_t digest = 0xCBF29CE484222325ULL;
  for (PageId page : pages) {
    if (!level.Contains(key, page)) continue;
    ++count;
    digest = (digest ^ page) * 0x100000001B3ULL;
  }
  return {count, digest};
}

// DRAM and tier churning together the way the engine drives them: a
// hot class with dedicated quotas in both levels, and a scan class in
// the shared regions whose sequential run lands whole read-ahead
// extents. Every DRAM eviction demotes, every random DRAM miss probes
// the tier, and the quotas shrink mid-trace. The counters and final
// residency pin the pools' exact LRU behaviour; they were recorded
// from the std::list pool this flat one replaced.
TEST(TieredBufferPoolTest, DramAndTierChurnPinsCounters) {
  PartitionedBufferPool dram(160);
  TieredBufferPool tier(MakeTier(192));
  dram.SetEvictionListener(
      [&tier](PartitionKey key, PageId page) { tier.Demote(key, page); });
  const PartitionKey hot = MakeClassKey(1, 1);
  const PartitionKey scan = MakeClassKey(1, 2);
  ASSERT_TRUE(dram.SetQuota(hot, 32));
  ASSERT_TRUE(tier.SetQuota(hot, 48));

  Rng rng(15);
  uint64_t cursor = 0;
  for (int step = 0; step < 20000; ++step) {
    if (step == 10000) {
      ASSERT_TRUE(dram.SetQuota(hot, 24));
      ASSERT_TRUE(tier.SetQuota(hot, 32));
    }
    const uint64_t pick = rng.NextUint64(10);
    if (pick < 8) {
      const PartitionKey key = pick < 5 ? hot : scan;
      const PageId page = pick < 5 ? MakePageId(1, rng.NextUint64(112))
                                   : MakePageId(2, rng.NextUint64(320));
      if (!dram.Access(key, page)) tier.PromoteHit(key, page);
      continue;
    }
    const PageId page = MakePageId(2, cursor);
    cursor = (cursor + 1) % 1024;
    if (!dram.Contains(scan, page)) {
      const uint64_t start = OffsetOf(page) - OffsetOf(page) % kExtentPages;
      for (uint64_t i = 0; i < kExtentPages; ++i) {
        dram.Insert(scan, MakePageId(2, start + i));
      }
    }
    dram.Access(scan, page);
  }

  EXPECT_EQ(tier.demotions(), 15484u);
  EXPECT_EQ(tier.promotions(), 5046u);
  EXPECT_EQ(tier.tier_misses(), 6835u);
  EXPECT_EQ(tier.resident_pages(), 192u);

  std::vector<PageId> hot_pages, scan_pages;
  for (uint64_t i = 0; i < 112; ++i) hot_pages.push_back(MakePageId(1, i));
  for (uint64_t i = 0; i < 1024; ++i) scan_pages.push_back(MakePageId(2, i));
  EXPECT_EQ(Residency(dram, hot, hot_pages),
            std::make_pair(uint64_t{24}, uint64_t{8325910851166596329ULL}));
  EXPECT_EQ(Residency(dram, scan, scan_pages),
            std::make_pair(uint64_t{136}, uint64_t{3860405626871140458ULL}));
  EXPECT_EQ(Residency(tier, hot, hot_pages),
            std::make_pair(uint64_t{32}, uint64_t{18349858909114581081ULL}));
  EXPECT_EQ(Residency(tier, scan, scan_pages),
            std::make_pair(uint64_t{160}, uint64_t{10055237744661222955ULL}));
}

// --- two-level curve read-out -----------------------------------------

// A cyclic scan of `loop` pages under LRU: every reuse lands at stack
// depth `loop`, so the curve is flat at 1.0 until the whole loop fits
// and drops to the cold-miss floor there — the canonical LRU cliff.
std::shared_ptr<const MissRatioCurve> CliffCurve(uint64_t loop,
                                                 uint64_t hits,
                                                 uint64_t cold) {
  std::vector<uint64_t> histogram(loop, 0);
  histogram[loop - 1] = hits;
  return std::make_shared<const MissRatioCurve>(
      MissRatioCurve::FromHistogram(histogram, cold, hits + cold));
}

// A linear curve: one hit at every depth in [1, span], so the miss
// ratio falls by 1/span per page of cache — no cliffs anywhere.
std::shared_ptr<const MissRatioCurve> LinearCurve(uint64_t span) {
  std::vector<uint64_t> histogram(span, 1);
  return std::make_shared<const MissRatioCurve>(
      MissRatioCurve::FromHistogram(histogram, 0, span));
}

TEST(MissRatioCurveTierTest, Tier2HitRatioIsTheSecondReadOut) {
  const auto curve = CliffCurve(/*loop=*/1000, /*hits=*/990, /*cold=*/10);
  EXPECT_DOUBLE_EQ(curve->MissRatioAt(999), 1.0);
  EXPECT_NEAR(curve->MissRatioAt(1000), 0.01, 1e-12);
  // A tier-2 slice that crosses the cliff captures the whole loop.
  EXPECT_NEAR(curve->Tier2HitRatioAt(100, 900), 0.99, 1e-12);
  // One that stays on the flat part captures nothing.
  EXPECT_DOUBLE_EQ(curve->Tier2HitRatioAt(100, 800), 0.0);
  EXPECT_DOUBLE_EQ(curve->Tier2HitRatioAt(1000, 500), 0.0);
}

// --- PlanTiered -------------------------------------------------------

ClassMemoryProfile Profile(ClassKey key, uint64_t total, uint64_t acceptable,
                           double acceptable_miss,
                           std::shared_ptr<const MissRatioCurve> curve) {
  ClassMemoryProfile p;
  p.key = key;
  p.params.total_memory_pages = total;
  p.params.acceptable_memory_pages = acceptable;
  p.params.acceptable_miss_ratio = acceptable_miss;
  p.params.ideal_miss_ratio = acceptable_miss;
  p.curve = std::move(curve);
  return p;
}

TEST(QuotaPlannerTieredTest, PlacementFitsWhenDramCoversTotalNeed) {
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(MakeClassKey(2, 4), 3000, 2000, 0.05, LinearCurve(3000))},
      {Profile(MakeClassKey(1, 1), 4000, 3500, 0.05, nullptr)},
      TierCostModel{});
  EXPECT_TRUE(plan.placement_fits);
  EXPECT_TRUE(plan.quotas.empty());
  EXPECT_TRUE(plan.tier2_quotas.empty());
}

TEST(QuotaPlannerTieredTest, JumpsTheLruCliffIntoTheSecondTier) {
  // A cyclic scan whose loop (12000 pages) dwarfs the DRAM left after
  // the stable classes take their share: every fixed-granule extension
  // shows zero marginal gain, so only scanning extensions (jumping the
  // cliff in one step) can see the win. DRAM-only planning could do
  // nothing for this class — its acceptable miss ratio is 1.0 — but
  // the tier pulls the whole loop off disk.
  const ClassKey scan = MakeClassKey(2, 4);
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(scan, 8192, 0, 1.0, CliffCurve(12000, 990, 10))},
      {Profile(MakeClassKey(1, 1), 7680, 7680, 0.02, nullptr)},
      TierCostModel{});

  EXPECT_FALSE(plan.placement_fits);
  EXPECT_FALSE(plan.infeasible);
  EXPECT_TRUE(plan.reschedule.empty());
  ASSERT_EQ(plan.quotas.count(scan), 1u);
  ASSERT_EQ(plan.tier2_quotas.count(scan), 1u);
  // The combined allocation crosses the cliff: the loop fits in
  // DRAM + tier-2, so misses collapse to the cold floor.
  EXPECT_GE(plan.quotas.at(scan) + plan.tier2_quotas.at(scan), 12000u);
  EXPECT_LE(plan.tier2_quotas.at(scan), 16384u);
}

TEST(QuotaPlannerTieredTest, SplitsASmoothCurveAcrossBothTiers) {
  // A linear curve with a 10000-page working set and a lenient
  // acceptable point (10% misses at 9000 pages): the greedy pass
  // spends the scarce DRAM first (each DRAM page also upgrades tier-2
  // hits to memory speed), then extends tier-2 until the curve goes
  // flat. The blend beats the DRAM-only acceptable target because the
  // tier serves at SSD speed what would otherwise go to disk.
  const ClassKey smooth = MakeClassKey(2, 4);
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(smooth, 10000, 9000, 0.1, LinearCurve(10000))},
      {Profile(MakeClassKey(1, 1), 7680, 7680, 0.02, nullptr)},
      TierCostModel{});

  EXPECT_TRUE(plan.reschedule.empty());
  ASSERT_EQ(plan.quotas.count(smooth), 1u);
  ASSERT_EQ(plan.tier2_quotas.count(smooth), 1u);
  // All 512 pages of free DRAM go to the class (floor 256 + greedy),
  // and tier-2 covers the rest of the working set to within a granule.
  EXPECT_EQ(plan.quotas.at(smooth), 512u);
  EXPECT_GE(plan.quotas.at(smooth) + plan.tier2_quotas.at(smooth), 9984u);
}

TEST(QuotaPlannerTieredTest, ReschedulesWhenTheBlendCannotMatchDram) {
  // Same smooth class but with a strict acceptable point (2% misses):
  // serving most of its working set at SSD speed is worse than the
  // near-all-DRAM allocation it would get on another replica, so the
  // tier is not a substitute — reschedule.
  const ClassKey smooth = MakeClassKey(2, 4);
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(smooth, 10000, 9800, 0.02, LinearCurve(10000))},
      {Profile(MakeClassKey(1, 1), 7680, 7680, 0.02, nullptr)},
      TierCostModel{});

  EXPECT_EQ(plan.quotas.count(smooth), 0u);
  EXPECT_TRUE(plan.tier2_quotas.empty());
  ASSERT_EQ(plan.reschedule.size(), 1u);
  EXPECT_EQ(plan.reschedule[0], smooth);
}

TEST(QuotaPlannerTieredTest, CurvelessProfilesFallBackToDramOnlyFit) {
  // Legacy profiles carry parameters but no curve: they are planned
  // with the DRAM-only acceptable-fit rule against whatever DRAM the
  // greedy pass left, and never receive tier-2 quotas.
  const ClassKey legacy = MakeClassKey(2, 4);
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384, {Profile(legacy, 8192, 400, 0.05, nullptr)},
      {Profile(MakeClassKey(1, 1), 7680, 7680, 0.02, nullptr)},
      TierCostModel{});
  EXPECT_TRUE(plan.reschedule.empty());
  ASSERT_EQ(plan.quotas.count(legacy), 1u);
  EXPECT_EQ(plan.quotas.at(legacy), 400u);
  EXPECT_TRUE(plan.tier2_quotas.empty());

  // And when even that DRAM is not there, the class is rescheduled —
  // the tier cannot stand in for a curve it has never seen.
  const QuotaPlan crowded = planner.PlanTiered(
      8192, 16384, {Profile(legacy, 8192, 600, 0.05, nullptr)},
      {Profile(MakeClassKey(1, 1), 7680, 7680, 0.02, nullptr)},
      TierCostModel{});
  EXPECT_EQ(crowded.quotas.count(legacy), 0u);
  ASSERT_EQ(crowded.reschedule.size(), 1u);
  EXPECT_EQ(crowded.reschedule[0], legacy);
}

TEST(QuotaPlannerTieredTest, InfeasibleWhenOthersAloneOverflowDram) {
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(MakeClassKey(2, 4), 8192, 0, 1.0, CliffCurve(12000, 990, 10))},
      {Profile(MakeClassKey(1, 1), 9000, 9000, 0.02, nullptr)},
      TierCostModel{});
  EXPECT_TRUE(plan.infeasible);
  EXPECT_TRUE(plan.quotas.empty());
  EXPECT_TRUE(plan.tier2_quotas.empty());
  EXPECT_TRUE(plan.reschedule.empty());
}

TEST(QuotaPlannerTieredTest, TierQuotasAreAlwaysASubsetOfQuotas) {
  QuotaPlanner planner;
  const QuotaPlan plan = planner.PlanTiered(
      8192, 16384,
      {Profile(MakeClassKey(2, 4), 8192, 0, 1.0, CliffCurve(12000, 990, 10)),
       Profile(MakeClassKey(2, 7), 4000, 3000, 0.1, LinearCurve(4000))},
      {Profile(MakeClassKey(1, 1), 7000, 7000, 0.02, nullptr)},
      TierCostModel{});
  for (const auto& [key, pages] : plan.tier2_quotas) {
    EXPECT_EQ(plan.quotas.count(key), 1u)
        << "tier2 quota without a DRAM quota for key " << key;
    EXPECT_GT(pages, 0u);
  }
}

}  // namespace
}  // namespace fglb

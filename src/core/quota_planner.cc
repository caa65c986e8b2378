#include "core/quota_planner.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace fglb {

namespace {

uint64_t SumTotalNeed(const std::vector<ClassMemoryProfile>& profiles) {
  uint64_t sum = 0;
  for (const auto& p : profiles) sum += p.params.total_memory_pages;
  return sum;
}

uint64_t SumAcceptableNeed(const std::vector<ClassMemoryProfile>& profiles) {
  uint64_t sum = 0;
  for (const auto& p : profiles) sum += p.params.acceptable_memory_pages;
  return sum;
}

}  // namespace

std::string QuotaPlan::ToString() const {
  std::string out;
  if (placement_fits) out += "placement-fits";
  if (infeasible) out += "infeasible";
  char buf[96];
  for (const auto& [key, pages] : quotas) {
    std::snprintf(buf, sizeof(buf), " quota(app=%u,class=%u)=%llu",
                  AppOf(key), ClassOf(key),
                  static_cast<unsigned long long>(pages));
    out += buf;
  }
  for (const auto& [key, pages] : tier2_quotas) {
    std::snprintf(buf, sizeof(buf), " tier2(app=%u,class=%u)=%llu",
                  AppOf(key), ClassOf(key),
                  static_cast<unsigned long long>(pages));
    out += buf;
  }
  for (ClassKey key : reschedule) {
    std::snprintf(buf, sizeof(buf), " reschedule(app=%u,class=%u)",
                  AppOf(key), ClassOf(key));
    out += buf;
  }
  return out;
}

QuotaPlan QuotaPlanner::Plan(
    uint64_t pool_pages, const std::vector<ClassMemoryProfile>& problem,
    const std::vector<ClassMemoryProfile>& others) const {
  const ScopedTimer timer(plan_us_);
  QuotaPlan plan;

  // Step 1: does the current placement meet the *total* memory need of
  // all contexts? Then no action is required here.
  const uint64_t total_need = SumTotalNeed(problem) + SumTotalNeed(others);
  if (total_need <= pool_pages) {
    plan.placement_fits = true;
    return plan;
  }

  // Step 2: try to keep every problem class under a fixed quota equal
  // to its acceptable memory, leaving the rest of the pool to the
  // other classes; everyone must still be predicted to reach their
  // acceptable miss ratio.
  std::vector<ClassMemoryProfile> kept = problem;
  // Reschedule candidates leave largest-need first.
  std::sort(kept.begin(), kept.end(),
            [](const ClassMemoryProfile& a, const ClassMemoryProfile& b) {
              return a.params.acceptable_memory_pages <
                     b.params.acceptable_memory_pages;
            });
  const uint64_t others_acceptable = SumAcceptableNeed(others);
  while (!kept.empty()) {
    const uint64_t kept_acceptable = SumAcceptableNeed(kept);
    if (kept_acceptable + others_acceptable <= pool_pages) break;
    // The largest problem class cannot be accommodated: mark it for
    // rescheduling on another replica and retry with the rest.
    plan.reschedule.push_back(kept.back().key);
    kept.pop_back();
  }
  if (kept.empty() && others_acceptable > pool_pages) {
    // Even with every problem class gone the rest cannot reach their
    // acceptable ratios: fine-grained retuning cannot fix this engine.
    plan.infeasible = true;
    return plan;
  }
  for (const auto& p : kept) {
    plan.quotas[p.key] =
        std::max(p.params.acceptable_memory_pages, min_quota_pages_);
  }
  return plan;
}

namespace {

// Granularity of the greedy two-level allocation. Fine enough that the
// boundary lands near the curve's knees, coarse enough that a plan is
// a few hundred iterations at worst.
constexpr uint64_t kTierGranulePages = 64;

// Expected per-access latency (us) of a class whose curve is split at
// (dram, dram + tier2).
double BlendedLatencyUs(const MissRatioCurve& curve, uint64_t dram,
                        uint64_t tier2, const TierCostModel& cost) {
  const double miss = curve.MissRatioAt(dram + tier2);
  const double t2 = curve.Tier2HitRatioAt(dram, tier2);
  const double mem = 1.0 - miss - t2;
  return mem * cost.t_mem_us + t2 * cost.t_ssd_us + miss * cost.t_disk_us;
}

}  // namespace

QuotaPlan QuotaPlanner::PlanTiered(
    uint64_t pool_pages, uint64_t tier2_pages,
    const std::vector<ClassMemoryProfile>& problem,
    const std::vector<ClassMemoryProfile>& others,
    const TierCostModel& cost) const {
  const ScopedTimer timer(tiered_us_);
  QuotaPlan plan;

  // Step 1, unchanged from Plan: if DRAM alone meets everyone's total
  // need there is nothing to fix.
  const uint64_t total_need = SumTotalNeed(problem) + SumTotalNeed(others);
  if (total_need <= pool_pages) {
    plan.placement_fits = true;
    return plan;
  }

  const uint64_t others_acceptable = SumAcceptableNeed(others);
  uint64_t dram_left =
      pool_pages > others_acceptable ? pool_pages - others_acceptable : 0;
  uint64_t tier2_left = tier2_pages;

  // Split the suspects into curve-backed classes (planned greedily
  // across both tiers) and legacy profiles without a curve (DRAM-only
  // acceptable-fit, as in Plan).
  struct Alloc {
    const ClassMemoryProfile* profile;
    uint64_t dram = 0;
    uint64_t tier2 = 0;
  };
  std::vector<Alloc> allocs;
  std::vector<ClassMemoryProfile> legacy;
  for (const auto& p : problem) {
    if (p.curve != nullptr && !p.curve->empty()) {
      allocs.push_back(Alloc{&p});
    } else {
      legacy.push_back(p);
    }
  }
  std::sort(allocs.begin(), allocs.end(), [](const Alloc& a, const Alloc& b) {
    return a.profile->key < b.profile->key;
  });

  // Seed every curve class with the floor quota; a class the floor
  // cannot even be found for is rescheduled outright.
  for (auto it = allocs.begin(); it != allocs.end();) {
    if (dram_left >= min_quota_pages_) {
      it->dram = min_quota_pages_;
      dram_left -= min_quota_pages_;
      ++it;
    } else {
      plan.reschedule.push_back(it->profile->key);
      it = allocs.erase(it);
    }
  }

  // Greedy by best marginal *rate*: each round every class proposes
  // extending its DRAM or tier-2 allocation by any granule multiple
  // the budgets allow, scored by expected latency saving per page, and
  // the single best proposal wins. Growing DRAM by e upgrades hits in
  // (d1, d1+e] from SSD to memory speed *and* pulls (d1+d2, d1+d2+e]
  // in from disk; growing tier-2 only does the latter. A fixed
  // one-granule step would starve cliff-shaped LRU curves — a cyclic
  // scan's curve is flat until the whole loop fits, so every small
  // step shows zero marginal gain — whereas scanning extensions lets
  // the plan jump a cliff whenever a budget can clear it. On smooth
  // curves the smallest extension has the best (equal) rate, so the
  // strict > keeps the classic granule-at-a-time behaviour there. Ties
  // break toward DRAM, then the lowest class key (the scan order).
  for (;;) {
    double best_rate = 0;
    Alloc* best = nullptr;
    bool best_is_dram = false;
    uint64_t best_pages = 0;
    for (Alloc& a : allocs) {
      const MissRatioCurve& curve = *a.profile->curve;
      const double accesses = static_cast<double>(curve.total_accesses());
      for (uint64_t e = kTierGranulePages; e <= dram_left;
           e += kTierGranulePages) {
        const double upgraded =
            curve.MissRatioAt(a.dram) - curve.MissRatioAt(a.dram + e);
        const double pulled_in =
            curve.MissRatioAt(a.dram + a.tier2) -
            curve.MissRatioAt(a.dram + a.tier2 + e);
        const double gain =
            accesses * (upgraded * (cost.t_ssd_us - cost.t_mem_us) +
                        pulled_in * (cost.t_disk_us - cost.t_ssd_us));
        const double rate = gain / static_cast<double>(e);
        if (rate > best_rate) {
          best_rate = rate;
          best = &a;
          best_is_dram = true;
          best_pages = e;
        }
      }
      for (uint64_t e = kTierGranulePages; e <= tier2_left;
           e += kTierGranulePages) {
        const double pulled_in =
            curve.MissRatioAt(a.dram + a.tier2) -
            curve.MissRatioAt(a.dram + a.tier2 + e);
        const double gain =
            accesses * pulled_in * (cost.t_disk_us - cost.t_ssd_us);
        const double rate = gain / static_cast<double>(e);
        if (rate > best_rate) {
          best_rate = rate;
          best = &a;
          best_is_dram = false;
          best_pages = e;
        }
      }
    }
    if (best == nullptr) break;
    if (best_is_dram) {
      best->dram += best_pages;
      dram_left -= best_pages;
    } else {
      best->tier2 += best_pages;
      tier2_left -= best_pages;
    }
  }

  // Keep a class when the two-tier split serves it at least as well as
  // its acceptable DRAM-only allocation would; otherwise reschedule
  // (its pages return to the budgets for the legacy pass below).
  for (const Alloc& a : allocs) {
    const MissRatioCurve& curve = *a.profile->curve;
    const double acceptable_miss = a.profile->params.acceptable_miss_ratio;
    const double target_us = (1.0 - acceptable_miss) * cost.t_mem_us +
                             acceptable_miss * cost.t_disk_us;
    const double blended_us =
        BlendedLatencyUs(curve, a.dram, a.tier2, cost);
    if (blended_us <= target_us + 1e-9) {
      plan.quotas[a.profile->key] = std::max(a.dram, min_quota_pages_);
      if (a.tier2 > 0) plan.tier2_quotas[a.profile->key] = a.tier2;
    } else {
      plan.reschedule.push_back(a.profile->key);
      dram_left += a.dram;
      tier2_left += a.tier2;
    }
  }

  // Legacy profiles without curves: the DRAM-only acceptable-fit rule
  // against whatever DRAM the greedy pass left over.
  std::sort(legacy.begin(), legacy.end(),
            [](const ClassMemoryProfile& a, const ClassMemoryProfile& b) {
              return a.params.acceptable_memory_pages <
                     b.params.acceptable_memory_pages;
            });
  while (!legacy.empty() && SumAcceptableNeed(legacy) > dram_left) {
    plan.reschedule.push_back(legacy.back().key);
    legacy.pop_back();
  }
  for (const auto& p : legacy) {
    plan.quotas[p.key] =
        std::max(p.params.acceptable_memory_pages, min_quota_pages_);
  }

  if (plan.quotas.empty() && others_acceptable > pool_pages) {
    plan.infeasible = true;
    plan.reschedule.clear();
    plan.tier2_quotas.clear();
  }
  return plan;
}

bool QuotaPlanner::FitsOn(uint64_t pool_pages,
                          const ClassMemoryProfile& incoming,
                          const std::vector<ClassMemoryProfile>& existing) {
  return SumAcceptableNeed(existing) +
             incoming.params.acceptable_memory_pages <=
         pool_pages;
}

}  // namespace fglb

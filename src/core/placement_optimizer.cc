#include "core/placement_optimizer.h"

#include <algorithm>
#include <cstdio>

namespace fglb {

namespace {

struct ServerFill {
  uint64_t pages = 0;
  double cpu = 0;
  double io = 0;
};

// Largest normalized footprint across the three dimensions.
double DominantFraction(const ClassLoad& load,
                        const PlacementConfig& config) {
  const double mem = config.server_pool_pages > 0
                         ? static_cast<double>(load.acceptable_pages) /
                               static_cast<double>(config.server_pool_pages)
                         : 0.0;
  const double cpu =
      config.cpu_capacity > 0 ? load.cpu_rate / config.cpu_capacity : 0.0;
  const double io =
      config.io_capacity > 0 ? load.io_rate / config.io_capacity : 0.0;
  return std::max(mem, std::max(cpu, io));
}

bool Fits(const ServerFill& fill, const ClassLoad& load,
          const PlacementConfig& config) {
  if (static_cast<double>(fill.pages + load.acceptable_pages) >
      config.memory_fill * static_cast<double>(config.server_pool_pages)) {
    return false;
  }
  const double limit = config.target_fill;
  if (fill.cpu + load.cpu_rate > limit * config.cpu_capacity) return false;
  if (fill.io + load.io_rate > limit * config.io_capacity) return false;
  return true;
}

}  // namespace

int PlacementPlan::ServerOf(ClassKey key) const {
  for (size_t i = 0; i < servers.size(); ++i) {
    for (ClassKey k : servers[i]) {
      if (k == key) return static_cast<int>(i);
    }
  }
  return -1;
}

std::string PlacementPlan::ToString() const {
  std::string out = feasible ? "feasible" : "INFEASIBLE";
  char buf[64];
  for (size_t i = 0; i < servers.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "\n  server %zu:", i);
    out += buf;
    for (ClassKey key : servers[i]) {
      std::snprintf(buf, sizeof(buf), " app%u/c%u", AppOf(key),
                    ClassOf(key));
      out += buf;
    }
  }
  return out;
}

PlacementPlan ComputePlacement(const std::vector<ClassLoad>& classes,
                               const PlacementConfig& config,
                               MetricsRegistry* metrics) {
  const ScopedTimer timer(
      metrics != nullptr ? metrics->histogram("controller.plan.placement_us")
                         : nullptr);
  PlacementPlan plan;
  plan.feasible = true;

  // First-fit decreasing over the dominant dimension.
  std::vector<ClassLoad> ordered = classes;
  std::sort(ordered.begin(), ordered.end(),
            [&config](const ClassLoad& a, const ClassLoad& b) {
              return DominantFraction(a, config) >
                     DominantFraction(b, config);
            });

  std::vector<ServerFill> fills;
  for (const ClassLoad& load : ordered) {
    // A class that cannot fit even an empty server makes the whole
    // plan infeasible (it would need intra-class partitioning, which
    // query-class granularity cannot express).
    if (!Fits(ServerFill{}, load, config)) {
      plan.feasible = false;
      continue;
    }
    bool placed = false;
    for (size_t i = 0; i < fills.size(); ++i) {
      if (Fits(fills[i], load, config)) {
        fills[i].pages += load.acceptable_pages;
        fills[i].cpu += load.cpu_rate;
        fills[i].io += load.io_rate;
        plan.servers[i].push_back(load.key);
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (static_cast<int>(fills.size()) >= config.max_servers) {
        plan.feasible = false;
        continue;
      }
      ServerFill fill;
      fill.pages = load.acceptable_pages;
      fill.cpu = load.cpu_rate;
      fill.io = load.io_rate;
      fills.push_back(fill);
      plan.servers.push_back({load.key});
    }
  }
  return plan;
}

}  // namespace fglb

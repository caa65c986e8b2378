#include "mrc/opt_oracle.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <utility>

#include "mrc/fenwick_tree.h"

namespace fglb {

namespace {

// next[i] = index of the next occurrence of trace[i], or n if none.
std::vector<size_t> NextOccurrences(std::span<const PageId> trace) {
  const size_t n = trace.size();
  std::vector<size_t> next(n, n);
  std::unordered_map<PageId, size_t> seen;
  seen.reserve(n);
  for (size_t i = n; i-- > 0;) {
    auto it = seen.find(trace[i]);
    if (it != seen.end()) {
      next[i] = it->second;
      it->second = i;
    } else {
      seen.emplace(trace[i], i);
    }
  }
  return next;
}

}  // namespace

std::vector<uint64_t> OptForwardDistances(std::span<const PageId> trace) {
  const size_t n = trace.size();
  std::vector<uint64_t> result(n, kNoNextUse);
  if (n == 0) return result;
  const std::vector<size_t> next = NextOccurrences(trace);
  // Sweep right to left keeping one mark per distinct page in the
  // suffix (i, n-1], at that page's first occurrence there. When
  // position i+1 joins the suffix it becomes its page's first
  // occurrence, displacing the mark at next[i+1] if one exists. The
  // distance for i is then the number of marks strictly between i and
  // next[i] — snippet-style forward stack distance.
  FenwickTree marks(n);
  for (size_t i = n; i-- > 0;) {
    if (i + 1 < n) {
      marks.Add(i + 1, +1);
      if (next[i + 1] < n) marks.Add(next[i + 1], -1);
    }
    const size_t m = next[i];
    if (m < n) {
      result[i] = marks.PrefixSum(m) - marks.PrefixSum(i) - 1;
    }
  }
  return result;
}

double OptMissRatioAt(std::span<const PageId> trace, uint64_t cache_pages) {
  const size_t n = trace.size();
  if (n == 0) return 1.0;
  if (cache_pages == 0) return 1.0;
  const std::vector<size_t> next = NextOccurrences(trace);
  // resident: page -> its current next-use position (n = never again).
  // The heap orders candidates by farthest next use with lazy deletion
  // of entries that no longer match the resident map.
  std::unordered_map<PageId, size_t> resident;
  resident.reserve(std::min<size_t>(n, cache_pages));
  std::priority_queue<std::pair<size_t, PageId>> heap;
  uint64_t misses = 0;
  for (size_t i = 0; i < n; ++i) {
    const PageId page = trace[i];
    auto it = resident.find(page);
    if (it != resident.end()) {
      it->second = next[i];
      heap.emplace(next[i], page);
      continue;
    }
    ++misses;
    if (resident.size() >= cache_pages) {
      for (;;) {
        const auto [use, victim] = heap.top();
        heap.pop();
        auto vit = resident.find(victim);
        if (vit != resident.end() && vit->second == use) {
          resident.erase(vit);
          break;
        }
      }
    }
    resident.emplace(page, next[i]);
    heap.emplace(next[i], page);
  }
  return static_cast<double>(misses) / static_cast<double>(n);
}

double RegretVsOpt(std::span<const PageId> trace,
                   const MissRatioCurve& lru_curve, uint64_t cache_pages) {
  const double lru = lru_curve.MissRatioAt(cache_pages);
  const double opt = OptMissRatioAt(trace, cache_pages);
  return std::max(0.0, lru - opt);
}

}  // namespace fglb

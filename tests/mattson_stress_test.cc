#include <gtest/gtest.h>

#include "common/random.h"
#include "mrc/mattson_stack.h"
#include "reference/list_mattson_stack.h"

namespace fglb {
namespace {

using reference::ListMattsonStack;

// Stress paths of the Fenwick stack: slot-space compaction (long trace,
// few pages) and tree growth (many distinct pages), verified against
// the list oracle.

TEST(MattsonStressTest, CompactionPathMatchesOracle) {
  // 200k accesses over 100 pages: next_slot_ repeatedly exceeds
  // 4x distinct, forcing CompactIfSparse many times.
  Rng rng(3);
  ListMattsonStack list;
  FenwickMattsonStack fenwick;
  for (int i = 0; i < 200000; ++i) {
    const PageId p = MakePageId(1, rng.NextUint64(100));
    ASSERT_EQ(list.Access(p), fenwick.Access(p)) << "at access " << i;
  }
  EXPECT_EQ(list.hit_counts(), fenwick.hit_counts());
  EXPECT_EQ(list.cold_misses(), fenwick.cold_misses());
}

TEST(MattsonStressTest, TreeGrowthPathMatchesOracleSpotChecks) {
  // 60k accesses over 30k pages: the Fenwick tree grows through
  // several capacity doublings. The list oracle is O(depth) per access
  // so we only spot-check depths, then compare the full histograms.
  Rng rng(5);
  std::vector<PageId> trace;
  for (int i = 0; i < 60000; ++i) {
    trace.push_back(MakePageId(1, rng.NextUint64(30000)));
  }
  FenwickMattsonStack fenwick;
  for (PageId p : trace) fenwick.Access(p);

  ListMattsonStack list;
  for (PageId p : trace) list.Access(p);
  EXPECT_EQ(list.hit_counts(), fenwick.hit_counts());
  EXPECT_EQ(list.cold_misses(), fenwick.cold_misses());
  EXPECT_EQ(list.distinct_pages(), fenwick.distinct_pages());
}

TEST(MattsonStressTest, TotalsAlwaysBalance) {
  // Invariant: total accesses = cold misses + sum(hit counts).
  Rng rng(7);
  FenwickMattsonStack stack;
  for (int i = 0; i < 50000; ++i) {
    stack.Access(MakePageId(2, ScrambleToDomain(rng.NextUint64(5000), 5000)));
  }
  uint64_t hits = 0;
  for (uint64_t h : stack.hit_counts()) hits += h;
  EXPECT_EQ(stack.total_accesses(), stack.cold_misses() + hits);
}

TEST(MattsonStressTest, SingleHotPage) {
  FenwickMattsonStack stack;
  const PageId p = MakePageId(1, 42);
  for (int i = 0; i < 1000; ++i) stack.Access(p);
  EXPECT_EQ(stack.cold_misses(), 1u);
  ASSERT_EQ(stack.hit_counts().size(), 1u);
  EXPECT_EQ(stack.hit_counts()[0], 999u);
  EXPECT_EQ(stack.distinct_pages(), 1u);
}

TEST(MattsonStressTest, StridedPatternDepths) {
  // Round-robin over k pages gives every re-reference depth exactly k.
  const uint64_t k = 37;
  ListMattsonStack list;
  FenwickMattsonStack fenwick;
  for (int round = 0; round < 100; ++round) {
    for (uint64_t i = 0; i < k; ++i) {
      const PageId p = MakePageId(1, i);
      const uint64_t dl = list.Access(p);
      const uint64_t df = fenwick.Access(p);
      ASSERT_EQ(dl, df);
      if (round > 0) {
        ASSERT_EQ(df, k);
      }
    }
  }
  ASSERT_GE(list.hit_counts().size(), k);
  EXPECT_EQ(list.hit_counts()[k - 1], 99u * k);
}

}  // namespace
}  // namespace fglb

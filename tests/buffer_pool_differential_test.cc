// Differential test of the flat-arena BufferPool against the
// std::list + unordered_map ListLruPool it replaced: both are driven
// through the same seeded operation sequence, and after every operation
// the return value, the stats, the resident count and the exact
// sequence of evicted pages must agree. Draining both pools at the end
// compares the full LRU order.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "reference/list_lru_pool.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fglb {
namespace {

struct PoolPair {
  explicit PoolPair(uint64_t capacity) : flat(capacity), list(capacity) {
    flat.set_eviction_sink([this](PageId p) { flat_evicted.push_back(p); });
    list.set_eviction_sink([this](PageId p) { list_evicted.push_back(p); });
  }

  // Checks everything observable after one operation, then forgets the
  // evictions it has compared.
  void ExpectSame(const std::string& op) {
    SCOPED_TRACE(op);
    const BufferPoolStats& a = flat.stats();
    const BufferPoolStats& b = list.stats();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.prefetch_inserts, b.prefetch_inserts);
    EXPECT_EQ(flat.resident_pages(), list.resident_pages());
    EXPECT_EQ(flat.capacity(), list.capacity());
    EXPECT_EQ(flat_evicted, list_evicted);
    flat_evicted.clear();
    list_evicted.clear();
  }

  // Evicts everything, LRU first, so the eviction sequence is the whole
  // LRU order; then restores the capacity.
  void ExpectSameLruOrder() {
    const uint64_t capacity = flat.capacity();
    flat.Resize(0);
    list.Resize(0);
    ExpectSame("drain");
    flat.Resize(capacity);
    list.Resize(capacity);
  }

  BufferPool flat;
  reference::ListLruPool list;
  std::vector<PageId> flat_evicted;
  std::vector<PageId> list_evicted;
};

struct DiffCase {
  uint64_t capacity;
  uint64_t ops;
};

class BufferPoolDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BufferPoolDifferentialTest, MatchesListLruPool) {
  const DiffCase param = GetParam();
  const uint64_t capacity = param.capacity;
  PoolPair pools(capacity);
  Rng rng(0xF1A7'0000 + capacity);
  // A few tables, including the extremes of the 16-bit table id, with
  // offsets spanning about twice the capacity so hits, misses and
  // evictions all occur.
  const TableId tables[] = {0, 1, 7, 0xFFFF};
  const uint64_t span = 2 * capacity + 16;
  auto random_page = [&] {
    return MakePageId(tables[rng.NextUint64(4)], rng.NextUint64(span));
  };

  for (uint64_t i = 0; i < param.ops; ++i) {
    const uint64_t pick = rng.NextUint64(100);
    std::string op;
    if (pick < 50) {
      const PageId page = random_page();
      op = "Access";
      EXPECT_EQ(pools.flat.Access(page), pools.list.Access(page)) << i;
    } else if (pick < 60) {
      // A read-ahead extent run: consecutive offsets of one table.
      const PageId first = random_page();
      const uint64_t start = OffsetOf(first) - OffsetOf(first) % kExtentPages;
      op = "Insert extent";
      for (uint64_t k = 0; k < kExtentPages; ++k) {
        const PageId page = MakePageId(TableOf(first), start + k);
        EXPECT_EQ(pools.flat.Insert(page), pools.list.Insert(page)) << i;
      }
    } else if (pick < 70) {
      const PageId page = random_page();
      op = "Insert";
      EXPECT_EQ(pools.flat.Insert(page), pools.list.Insert(page)) << i;
    } else if (pick < 82) {
      const PageId page = random_page();
      op = "Erase";
      EXPECT_EQ(pools.flat.Erase(page), pools.list.Erase(page)) << i;
    } else if (pick < 94) {
      const PageId page = random_page();
      op = "Contains";
      EXPECT_EQ(pools.flat.Contains(page), pools.list.Contains(page)) << i;
    } else if (pick < 99) {
      // Grow, shrink, drop to zero, or return to the starting size.
      const uint64_t current = pools.flat.capacity();
      uint64_t next = capacity;
      switch (rng.NextUint64(4)) {
        case 0:
          next = std::min(2 * current + 1, 4 * capacity + 1);
          break;
        case 1:
          next = current / 2;
          break;
        case 2:
          next = 0;
          break;
        default:
          break;
      }
      op = "Resize";
      pools.flat.Resize(next);
      pools.list.Resize(next);
    } else {
      op = "Clear";
      pools.flat.Clear();
      pools.list.Clear();
    }
    pools.ExpectSame(op + " #" + std::to_string(i));
    if (::testing::Test::HasFailure()) return;  // first divergence only
  }
  pools.ExpectSameLruOrder();
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, BufferPoolDifferentialTest,
    ::testing::Values(DiffCase{0, 2000}, DiffCase{1, 5000},
                      DiffCase{2, 5000}, DiffCase{7, 20000},
                      DiffCase{64, 40000}, DiffCase{4096, 60000}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return "Capacity" + std::to_string(info.param.capacity);
    });

// The page map's hash, mirrored here only to build keys that collide:
// Fibonacci hashing keeping the top log2(buckets) bits.
size_t HomeBucket(PageId page, size_t buckets) {
  return static_cast<size_t>((page * 0x9E3779B97F4A7C15ULL) >>
                             (64 - std::countr_zero(buckets)));
}

TEST(BufferPoolProbeChainTest, EraseFromChainMiddleKeepsSurvivorsReachable) {
  // 40 pages resident in a pool of 64 run a 128-bucket map. Pick pages
  // whose home buckets are the last three and first two, so they form
  // one long probe chain that wraps past the end of the map. (Only the
  // chain's length depends on the hash; correctness does not.)
  constexpr size_t kBuckets = 128;
  std::vector<PageId> chain;
  for (uint64_t offset = 0; chain.size() < 40; ++offset) {
    const PageId page = MakePageId(3, offset);
    const size_t home = HomeBucket(page, kBuckets);
    if (home >= kBuckets - 3 || home < 2) chain.push_back(page);
  }
  PoolPair pools(64);
  for (PageId page : chain) {
    ASSERT_FALSE(pools.flat.Access(page));
    ASSERT_FALSE(pools.list.Access(page));
  }
  pools.ExpectSame("fill");

  // Erase from the middle of the chain, then from a shuffled order,
  // looking up every survivor after each erase.
  std::vector<PageId> order = chain;
  std::swap(order[0], order[order.size() / 2]);
  Rng rng(15);
  for (size_t i = order.size() - 1; i > 1; --i) {
    std::swap(order[i], order[1 + rng.NextUint64(i)]);
  }
  std::vector<PageId> survivors = chain;
  for (PageId victim : order) {
    ASSERT_TRUE(pools.flat.Erase(victim));
    ASSERT_TRUE(pools.list.Erase(victim));
    survivors.erase(std::find(survivors.begin(), survivors.end(), victim));
    EXPECT_FALSE(pools.flat.Contains(victim));
    for (PageId page : survivors) {
      ASSERT_TRUE(pools.flat.Contains(page)) << page;
    }
    pools.ExpectSame("erase");
  }
  EXPECT_EQ(pools.flat.resident_pages(), 0u);

  // Refill through the emptied map and compare the full LRU order.
  for (PageId page : chain) {
    EXPECT_EQ(pools.flat.Access(page), pools.list.Access(page));
  }
  for (size_t i = 0; i < chain.size(); i += 3) {
    EXPECT_TRUE(pools.flat.Access(chain[i]));
    EXPECT_TRUE(pools.list.Access(chain[i]));
  }
  pools.ExpectSameLruOrder();
}

}  // namespace
}  // namespace fglb

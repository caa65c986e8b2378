#ifndef FGLB_TESTS_REFERENCE_ARC_BUFFER_POOL_H_
#define FGLB_TESTS_REFERENCE_ARC_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "storage/page.h"
#include "storage/page_cache.h"

namespace fglb::reference {

// ARC (Adaptive Replacement Cache, Megiddo & Modha, FAST'03) page
// cache with the same interface surface as BufferPool/ClockBufferPool.
// ARC splits residency into a recency list T1 (pages seen once) and a
// frequency list T2 (pages seen at least twice), shadowed by ghost
// lists B1/B2 of recently evicted page ids, and adapts the target size
// `p` of T1 from ghost hits. A one-shot scan marches through T1
// without ever touching T2, so the hot set survives — the
// scan-resistance a pure LRU/CLOCK pool lacks. Like CLOCK, ARC does
// *not* satisfy the inclusion property, so the paper's Mattson-based
// MRC predictions are approximate for it; bench_ablation_replacement
// quantifies that gap for the quota planner. It is that ablation's ARC
// arm only: the simulated engines run LRU, as the paper's InnoDB pool
// does.
class ArcBufferPool : public PageCache {
 public:
  explicit ArcBufferPool(uint64_t capacity_pages);

  // References `page`. Returns true on hit (page was in T1 or T2).
  // On a miss the page is brought in (unless capacity is zero),
  // adapting `p` when the page id is remembered in a ghost list.
  bool Access(PageId page) override;

  // Read-ahead landing: installs the page at the cold (LRU) end of T1
  // without counting an access, touching the ghost lists or adapting —
  // the prefetched page is first in line for eviction unless actually
  // used, mirroring the CLOCK pool's clear-reference-bit landing.
  // Returns true if the page was brought in.
  bool Insert(PageId page) override;

  bool Contains(PageId page) const override {
    auto it = map_.find(page);
    return it != map_.end() &&
           (it->second.where == List::kT1 || it->second.where == List::kT2);
  }

  bool Erase(PageId page) override;

  // Shrinks or grows the cache. Shrinking replays ARC's own REPLACE
  // until residency fits, then trims the ghost directory back under
  // its |T1|+|B1| <= c and total <= 2c invariants.
  void Resize(uint64_t capacity_pages) override;

  void Clear() override;

  uint64_t resident_pages() const override {
    return t1_.size() + t2_.size();
  }

  // Current adaptation target for |T1| (observable for tests).
  uint64_t target_t1() const { return p_; }

 private:
  enum class List : uint8_t { kT1, kT2, kB1, kB2 };
  struct Slot {
    List where;
    std::list<PageId>::iterator it;
  };

  std::list<PageId>& ListOf(List which);
  // Moves the page `slot` tracks to the MRU end of `to`.
  void MoveTo(Slot& slot, List to);
  // Drops the LRU entry of `which` from the list and the map.
  void DropLru(List which);
  // ARC's REPLACE: evicts the LRU page of T1 or T2 into its ghost
  // list, steered by the target p. `ghost_hit_in_b2` biases toward
  // evicting from T1 on the |T1| == p boundary, per the paper.
  void Replace(bool ghost_hit_in_b2);

  uint64_t p_ = 0;  // adaptation target for |T1|
  std::list<PageId> t1_, t2_, b1_, b2_;  // front = MRU
  std::unordered_map<PageId, Slot> map_;
};

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_ARC_BUFFER_POOL_H_

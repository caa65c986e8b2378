#ifndef FGLB_STORAGE_BUFFER_POOL_H_
#define FGLB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "storage/page_cache.h"

namespace fglb {

// LRU page cache modeling one InnoDB buffer pool (or one partition of
// it). Purely a containment simulator: it answers hit/miss and tracks
// counters; I/O timing for misses is the disk model's job.
//
// Flat layout (DESIGN.md §18): resident pages live in a slot arena
// whose index links form the LRU list, and an open-addressing page map
// (linear probing, backward-shift deletion) finds a page's slot. Steady
// state allocates nothing: an eviction frees the slot the incoming page
// takes. Final, so the engine's per-access calls through a partition
// are direct rather than virtual.
class BufferPool final : public PageCache {
 public:
  explicit BufferPool(uint64_t capacity_pages);

  // References `page`, promoting it to most-recently-used. Returns true
  // on a hit. On a miss the page is brought in, evicting the LRU page
  // if the pool is full.
  bool Access(PageId page) override;

  // Inserts a page without counting an access (read-ahead landing).
  // Returns true if the page was actually brought in; no-op returning
  // false if already resident (residency is refreshed to MRU by real
  // accesses only, matching InnoDB's treatment of prefetched pages).
  // A zero-capacity pool also returns false.
  bool Insert(PageId page) override;

  bool Contains(PageId page) const override;

  bool Erase(PageId page) override;

  // Shrinks or grows the pool, evicting LRU pages as needed. A zero
  // capacity pool misses every access and caches nothing.
  void Resize(uint64_t capacity_pages) override;

  // Drops all resident pages (counters are retained).
  void Clear() override;

  uint64_t resident_pages() const override { return resident_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One resident page; prev/next are slot indices (prev toward MRU).
  // A free slot is chained through `next`.
  struct Slot {
    PageId page;
    uint32_t prev;
    uint32_t next;
  };
  // Page-map bucket; slot == kNil marks it empty.
  struct Bucket {
    PageId page;
    uint32_t slot;
  };

  // Bucket holding `page`, or the empty bucket ending its probe chain
  // (the map is at most half full, so there always is one).
  size_t Probe(PageId page) const;
  size_t Home(PageId page) const;
  // Maps `page` (known absent) to a fresh MRU slot, growing the map
  // first if the new resident count would overload it.
  void InsertMru(PageId page);
  // Empties `bucket`, shifting later entries of its chain back.
  void EraseBucket(size_t bucket);
  void EvictLru();
  // Rebuilds the map with `buckets` buckets from the LRU list.
  void Rehash(size_t buckets);

  void Unlink(uint32_t slot);
  void LinkMru(uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<Bucket> map_;  // size is zero or a power of two
  uint32_t mru_ = kNil;
  uint32_t lru_ = kNil;
  uint32_t free_ = kNil;
  uint64_t resident_ = 0;
  int shift_ = 64;  // 64 - log2(map_.size())
};

}  // namespace fglb

#endif  // FGLB_STORAGE_BUFFER_POOL_H_

#ifndef FGLB_STORAGE_PAGE_CACHE_H_
#define FGLB_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "storage/page.h"

namespace fglb {

// Cumulative counters for one page cache (or cache partition).
struct BufferPoolStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t prefetch_inserts = 0;

  double hit_ratio() const {
    return accesses > 0 ? static_cast<double>(hits) / accesses : 0.0;
  }
  double miss_ratio() const {
    return accesses > 0 ? static_cast<double>(misses) / accesses : 0.0;
  }
};

// Page-cache surface of the LRU BufferPool, shared with the pools under
// tests/reference (the list LRU oracle and the CLOCK and ARC arms of
// the replacement ablation) so tests and benches drive them alike.
class PageCache {
 public:
  // Called with every page that leaves residency under capacity
  // pressure (replacement or a shrinking Resize) — the tiered pool's
  // demote-on-DRAM-evict hook. Not called by Clear() (a drop, not an
  // eviction) or Erase() (a promotion, the page moves up, not down).
  using EvictionSink = std::function<void(PageId)>;

  virtual ~PageCache() = default;

  // References `page`, promoting it per the policy. Returns true on a
  // hit; on a miss the page is brought in (unless capacity is zero),
  // evicting a victim if the cache is full.
  virtual bool Access(PageId page) = 0;

  // Inserts a page without counting an access (read-ahead landing).
  // Returns true if the page was actually brought in; false if already
  // resident or capacity is zero.
  virtual bool Insert(PageId page) = 0;

  virtual bool Contains(PageId page) const = 0;

  // Removes `page` from residency without counting an eviction — the
  // caller is promoting it to a faster tier, not discarding it.
  // Returns true if it was resident.
  virtual bool Erase(PageId page) = 0;

  // Shrinks or grows the cache, evicting as needed. A zero-capacity
  // cache misses every access and caches nothing.
  virtual void Resize(uint64_t capacity_pages) = 0;

  // Drops all resident pages (counters are retained).
  virtual void Clear() = 0;

  virtual uint64_t resident_pages() const = 0;

  uint64_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats(); }

  void set_eviction_sink(EvictionSink sink) { sink_ = std::move(sink); }

 protected:
  explicit PageCache(uint64_t capacity_pages) : capacity_(capacity_pages) {}

  void NotifyEvicted(PageId page) {
    if (sink_) sink_(page);
  }

  uint64_t capacity_;
  BufferPoolStats stats_;

 private:
  EvictionSink sink_;
};

}  // namespace fglb

#endif  // FGLB_STORAGE_PAGE_CACHE_H_

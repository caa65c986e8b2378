#include "reference/list_lru_pool.h"

namespace fglb::reference {

ListLruPool::ListLruPool(uint64_t capacity_pages)
    : PageCache(capacity_pages) {}

bool ListLruPool::Access(PageId page) {
  ++stats_.accesses;
  auto it = map_.find(page);
  if (it != map_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  ++stats_.misses;
  if (capacity_ == 0) return false;
  lru_.push_front(page);
  map_[page] = lru_.begin();
  EvictIfNeeded();
  return false;
}

bool ListLruPool::Insert(PageId page) {
  if (capacity_ == 0) return false;
  if (map_.contains(page)) return false;
  ++stats_.prefetch_inserts;
  lru_.push_front(page);
  map_[page] = lru_.begin();
  EvictIfNeeded();
  return true;
}

bool ListLruPool::Contains(PageId page) const { return map_.contains(page); }

bool ListLruPool::Erase(PageId page) {
  auto it = map_.find(page);
  if (it == map_.end()) return false;
  lru_.erase(it->second);
  map_.erase(it);
  return true;
}

void ListLruPool::Resize(uint64_t capacity_pages) {
  capacity_ = capacity_pages;
  EvictIfNeeded();
}

void ListLruPool::Clear() {
  lru_.clear();
  map_.clear();
}

void ListLruPool::EvictIfNeeded() {
  while (map_.size() > capacity_) {
    const PageId victim = lru_.back();
    map_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
    NotifyEvicted(victim);
  }
}

}  // namespace fglb::reference

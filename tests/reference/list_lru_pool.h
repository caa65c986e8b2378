#ifndef FGLB_TESTS_REFERENCE_LIST_LRU_POOL_H_
#define FGLB_TESTS_REFERENCE_LIST_LRU_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "storage/page.h"
#include "storage/page_cache.h"

namespace fglb::reference {

// LRU page cache as a std::list plus an unordered_map from page to list
// node: one allocation per insert, one free per eviction, and obviously
// correct. The oracle the flat-arena BufferPool is checked against; the
// differential test drives both through the same operation sequence and
// compares return values, stats, residency and eviction order.
class ListLruPool : public PageCache {
 public:
  explicit ListLruPool(uint64_t capacity_pages);

  bool Access(PageId page) override;
  bool Insert(PageId page) override;
  bool Contains(PageId page) const override;
  bool Erase(PageId page) override;
  void Resize(uint64_t capacity_pages) override;
  void Clear() override;

  uint64_t resident_pages() const override { return map_.size(); }

 private:
  void EvictIfNeeded();

  // Front = most recently used.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
};

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_LIST_LRU_POOL_H_

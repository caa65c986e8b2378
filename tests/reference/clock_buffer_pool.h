#ifndef FGLB_TESTS_REFERENCE_CLOCK_BUFFER_POOL_H_
#define FGLB_TESTS_REFERENCE_CLOCK_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_cache.h"

namespace fglb::reference {

// CLOCK (second-chance) page cache with the same interface surface as
// BufferPool. Real engines often approximate LRU with CLOCK because it
// avoids list maintenance on every hit; but CLOCK does *not* satisfy
// the inclusion property Mattson's stack algorithm depends on, so MRC
// predictions are only approximate for it. The
// bench_ablation_replacement binary quantifies that gap — the
// sensitivity of the paper's whole memory-diagnosis pipeline to its
// LRU assumption. It is that ablation's CLOCK arm only: the simulated
// engines run LRU, as the paper's InnoDB pool does.
class ClockBufferPool : public PageCache {
 public:
  explicit ClockBufferPool(uint64_t capacity_pages);

  // References `page`, setting its reference bit. Returns true on hit.
  bool Access(PageId page) override;

  // Read-ahead landing: installs the page with a clear reference bit
  // (first in line for eviction unless actually used). Returns true if
  // the page was brought in.
  bool Insert(PageId page) override;

  bool Contains(PageId page) const override { return map_.contains(page); }

  bool Erase(PageId page) override;

  // Rebuilds the frame table at the new capacity, keeping the pages
  // furthest from the hand (the ones CLOCK would have evicted last)
  // when shrinking. The hand restarts at frame 0.
  void Resize(uint64_t capacity_pages) override;

  void Clear() override;

  uint64_t resident_pages() const override { return map_.size(); }

 private:
  struct Frame {
    PageId page = 0;
    bool occupied = false;
    bool referenced = false;
  };

  // Finds a victim frame index, advancing the hand and clearing
  // reference bits (second chance). Requires capacity > 0.
  size_t FindVictim();
  void InstallAt(size_t index, PageId page, bool referenced);

  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> map_;
  size_t hand_ = 0;
};

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_CLOCK_BUFFER_POOL_H_

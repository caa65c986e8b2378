#include "reference/clock_buffer_pool.h"

#include <algorithm>
#include <cassert>

namespace fglb::reference {

ClockBufferPool::ClockBufferPool(uint64_t capacity_pages)
    : PageCache(capacity_pages), frames_(capacity_pages) {}

size_t ClockBufferPool::FindVictim() {
  assert(capacity_ > 0);
  for (;;) {
    Frame& frame = frames_[hand_];
    if (!frame.occupied) {
      const size_t index = hand_;
      hand_ = (hand_ + 1) % frames_.size();
      return index;
    }
    if (!frame.referenced) {
      const size_t index = hand_;
      hand_ = (hand_ + 1) % frames_.size();
      return index;
    }
    frame.referenced = false;  // second chance
    hand_ = (hand_ + 1) % frames_.size();
  }
}

void ClockBufferPool::InstallAt(size_t index, PageId page, bool referenced) {
  Frame& frame = frames_[index];
  if (frame.occupied) {
    const PageId victim = frame.page;
    map_.erase(victim);
    ++stats_.evictions;
    NotifyEvicted(victim);
  }
  frame.page = page;
  frame.occupied = true;
  frame.referenced = referenced;
  map_[page] = index;
}

bool ClockBufferPool::Access(PageId page) {
  ++stats_.accesses;
  auto it = map_.find(page);
  if (it != map_.end()) {
    ++stats_.hits;
    frames_[it->second].referenced = true;
    return true;
  }
  ++stats_.misses;
  if (capacity_ == 0) return false;
  InstallAt(FindVictim(), page, /*referenced=*/true);
  return false;
}

bool ClockBufferPool::Insert(PageId page) {
  if (capacity_ == 0) return false;
  if (map_.contains(page)) return false;
  ++stats_.prefetch_inserts;
  InstallAt(FindVictim(), page, /*referenced=*/false);
  return true;
}

bool ClockBufferPool::Erase(PageId page) {
  auto it = map_.find(page);
  if (it == map_.end()) return false;
  frames_[it->second] = Frame{};
  map_.erase(it);
  return true;
}

void ClockBufferPool::Resize(uint64_t capacity_pages) {
  // Collect residents hand-first: the frames the hand reaches soonest
  // are the next eviction candidates, so when shrinking those are the
  // ones to let go.
  std::vector<Frame> resident;
  resident.reserve(map_.size());
  if (!frames_.empty()) {
    for (size_t i = 0; i < frames_.size(); ++i) {
      const Frame& frame = frames_[(hand_ + i) % frames_.size()];
      if (frame.occupied) resident.push_back(frame);
    }
  }
  capacity_ = capacity_pages;
  const size_t keep_from = resident.size() > capacity_pages
                               ? resident.size() - capacity_pages
                               : 0;
  for (size_t i = 0; i < keep_from; ++i) {
    ++stats_.evictions;
    NotifyEvicted(resident[i].page);
  }
  frames_.assign(capacity_pages, Frame{});
  map_.clear();
  hand_ = 0;
  for (size_t i = keep_from; i < resident.size(); ++i) {
    const size_t index = i - keep_from;
    frames_[index] = resident[i];
    map_[resident[i].page] = index;
  }
}

void ClockBufferPool::Clear() {
  std::fill(frames_.begin(), frames_.end(), Frame{});
  map_.clear();
  hand_ = 0;
}

}  // namespace fglb::reference

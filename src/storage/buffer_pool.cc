#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace fglb {
namespace {

constexpr size_t kMinBuckets = 8;

// Fibonacci hashing: the multiply spreads every input bit into the top
// bits, and Home() keeps the top bits. PageId puts the table id in its
// high 16 bits and consecutive extent offsets in its low bits, so a
// hash that kept the low bits would cluster whole extents.
constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

// The map stays at most half full, so linear probe chains stay short
// for the misses that dominate tier-2 lookups.
bool Overloaded(uint64_t resident, size_t buckets) {
  return 2 * resident > buckets;
}

size_t BucketsFor(uint64_t resident) {
  size_t buckets = kMinBuckets;
  while (Overloaded(resident, buckets)) buckets *= 2;
  return buckets;
}

}  // namespace

BufferPool::BufferPool(uint64_t capacity_pages) : PageCache(capacity_pages) {
  Rehash(kMinBuckets);
}

bool BufferPool::Access(PageId page) {
  ++stats_.accesses;
  const uint32_t slot = map_[Probe(page)].slot;
  if (slot != kNil) {
    ++stats_.hits;
    if (slot != mru_) {
      Unlink(slot);
      LinkMru(slot);
    }
    return true;
  }
  ++stats_.misses;
  if (capacity_ == 0) return false;
  // Make room first: the incoming page lands at the MRU end and
  // capacity >= 1, so the victim is the same page evicting afterwards
  // would pick, and the arena never holds more than `capacity_` slots.
  if (resident_ >= capacity_) EvictLru();
  InsertMru(page);
  return false;
}

bool BufferPool::Insert(PageId page) {
  if (capacity_ == 0) return false;
  if (map_[Probe(page)].slot != kNil) return false;
  ++stats_.prefetch_inserts;
  if (resident_ >= capacity_) EvictLru();
  InsertMru(page);
  return true;
}

bool BufferPool::Contains(PageId page) const {
  return map_[Probe(page)].slot != kNil;
}

bool BufferPool::Erase(PageId page) {
  const size_t bucket = Probe(page);
  const uint32_t slot = map_[bucket].slot;
  if (slot == kNil) return false;
  EraseBucket(bucket);
  Unlink(slot);
  slots_[slot].next = free_;
  free_ = slot;
  --resident_;
  return true;
}

void BufferPool::Resize(uint64_t capacity_pages) {
  capacity_ = capacity_pages;
  while (resident_ > capacity_) EvictLru();
  if (slots_.size() <= capacity_) return;
  // Shrunk below the arena: repack the survivors MRU-first into an
  // arena (and map) sized for what is resident, releasing the rest.
  std::vector<Slot> packed;
  packed.reserve(resident_);
  for (uint32_t s = mru_; s != kNil; s = slots_[s].next) {
    const auto i = static_cast<uint32_t>(packed.size());
    packed.push_back({slots_[s].page, i == 0 ? kNil : i - 1, i + 1});
  }
  if (!packed.empty()) packed.back().next = kNil;
  slots_ = std::move(packed);
  mru_ = slots_.empty() ? kNil : 0;
  lru_ = slots_.empty() ? kNil : static_cast<uint32_t>(slots_.size() - 1);
  free_ = kNil;
  Rehash(BucketsFor(resident_));
}

void BufferPool::Clear() {
  slots_ = std::vector<Slot>();
  mru_ = lru_ = free_ = kNil;
  resident_ = 0;
  Rehash(kMinBuckets);
}

size_t BufferPool::Home(PageId page) const {
  return static_cast<size_t>((page * kFibonacci) >> shift_);
}

size_t BufferPool::Probe(PageId page) const {
  const size_t mask = map_.size() - 1;
  for (size_t b = Home(page);; b = (b + 1) & mask) {
    const Bucket& bucket = map_[b];
    if (bucket.slot == kNil || bucket.page == page) return b;
  }
}

void BufferPool::InsertMru(PageId page) {
  if (Overloaded(resident_ + 1, map_.size())) Rehash(map_.size() * 2);
  uint32_t slot = free_;
  if (slot != kNil) {
    free_ = slots_[slot].next;
    slots_[slot].page = page;
  } else {
    assert(slots_.size() < kNil);
    // Grow geometrically, but never past capacity: the arena holds at
    // most `capacity_` slots.
    if (slots_.size() == slots_.capacity()) {
      slots_.reserve(std::min<uint64_t>(
          std::max<uint64_t>(16, 2 * slots_.size()), capacity_));
    }
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back({page, kNil, kNil});
  }
  LinkMru(slot);
  map_[Probe(page)] = {page, slot};
  ++resident_;
}

void BufferPool::EraseBucket(size_t bucket) {
  // Backward-shift deletion: walk the rest of the chain and pull back
  // every entry whose home lies at or before the hole, so no tombstone
  // is needed and every survivor stays reachable from its home.
  const size_t mask = map_.size() - 1;
  for (size_t b = (bucket + 1) & mask; map_[b].slot != kNil;
       b = (b + 1) & mask) {
    const size_t home = Home(map_[b].page);
    if (((b - home) & mask) >= ((b - bucket) & mask)) {
      map_[bucket] = map_[b];
      bucket = b;
    }
  }
  map_[bucket].slot = kNil;
}

void BufferPool::EvictLru() {
  const uint32_t victim = lru_;
  const PageId page = slots_[victim].page;
  EraseBucket(Probe(page));
  Unlink(victim);
  slots_[victim].next = free_;
  free_ = victim;
  --resident_;
  ++stats_.evictions;
  NotifyEvicted(page);
}

void BufferPool::Rehash(size_t buckets) {
  map_ = std::vector<Bucket>(buckets, Bucket{0, kNil});
  shift_ = 64 - std::countr_zero(buckets);
  for (uint32_t s = mru_; s != kNil; s = slots_[s].next) {
    map_[Probe(slots_[s].page)] = {slots_[s].page, s};
  }
}

void BufferPool::Unlink(uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    mru_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_ = s.prev;
  }
}

void BufferPool::LinkMru(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = mru_;
  if (mru_ != kNil) {
    slots_[mru_].prev = slot;
  } else {
    lru_ = slot;
  }
  mru_ = slot;
}

}  // namespace fglb

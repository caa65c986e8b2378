#include "mrc/mattson_stack.h"

#include <algorithm>
#include <cassert>

namespace fglb {

namespace {

void RecordHit(std::vector<uint64_t>& hits, uint64_t depth) {
  assert(depth >= 1);
  if (hits.size() < depth) hits.resize(depth, 0);
  ++hits[depth - 1];
}

size_t SlotsFor(size_t expected_accesses) {
  size_t slots = 1024;
  while (expected_accesses + 1 > slots) slots *= 2;
  return slots;
}

}  // namespace

FenwickMattsonStack::FenwickMattsonStack(size_t expected_accesses)
    : marks_(SlotsFor(expected_accesses)) {}

void FenwickMattsonStack::EnsureCapacity(size_t slot) {
  if (slot < marks_.size()) return;
  size_t slots = marks_.size();
  while (slot >= slots) slots *= 2;
  marks_.Grow(slots);
  ++capacity_rebuilds_;
}

void FenwickMattsonStack::Reset() {
  marks_.Clear();
  last_slot_.clear();
  next_slot_ = 0;
  marked_ = 0;
  hits_.clear();
  cold_misses_ = 0;
  total_ = 0;
  capacity_rebuilds_ = 0;
}

void FenwickMattsonStack::CompactIfSparse() {
  if (next_slot_ < 4096 || next_slot_ < 4 * last_slot_.size()) return;
  // Reassign slots densely, preserving recency order.
  std::vector<std::pair<size_t, PageId>> by_slot;
  by_slot.reserve(last_slot_.size());
  for (const auto& [page, slot] : last_slot_) by_slot.emplace_back(slot, page);
  std::sort(by_slot.begin(), by_slot.end());
  marks_.Clear();
  next_slot_ = 0;
  for (const auto& [old_slot, page] : by_slot) {
    last_slot_[page] = next_slot_;
    marks_.Add(next_slot_, +1);
    ++next_slot_;
  }
}

uint64_t FenwickMattsonStack::Access(PageId page) {
  ++total_;
  const auto [it, first_reference] = last_slot_.try_emplace(page, 0);
  uint64_t depth = 0;
  if (first_reference) {
    ++cold_misses_;
  } else {
    const size_t old_slot = it->second;
    // Pages referenced after this one's last reference sit above it.
    const uint64_t newer = marked_ - marks_.PrefixSum(old_slot);
    depth = newer + 1;
    RecordHit(hits_, depth);
    marks_.Add(old_slot, -1);
    --marked_;
  }
  const size_t slot = next_slot_++;
  EnsureCapacity(slot);
  it->second = slot;
  marks_.Add(slot, +1);
  ++marked_;
  CompactIfSparse();
  return depth;
}

}  // namespace fglb

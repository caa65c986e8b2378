#ifndef FGLB_TESTS_REFERENCE_LIST_MATTSON_STACK_H_
#define FGLB_TESTS_REFERENCE_LIST_MATTSON_STACK_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mrc/mattson_stack.h"
#include "storage/page.h"

namespace fglb::reference {

// Mattson's stack as an explicit LRU list with a linear depth search:
// O(depth) per access, simple and obviously correct. The oracle the
// Fenwick and sampled stacks are checked against; tests substitute it
// for the production stack through MissRatioCurve::FromStack/Replay.
class ListMattsonStack final : public MattsonStack {
 public:
  uint64_t Access(PageId page) override;
  void Reset() override;
  const std::vector<uint64_t>& hit_counts() const override { return hits_; }
  uint64_t cold_misses() const override { return cold_misses_; }
  uint64_t total_accesses() const override { return total_; }
  uint64_t distinct_pages() const override { return index_.size(); }

 private:
  std::list<PageId> stack_;  // front = most recently used
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
  std::vector<uint64_t> hits_;
  uint64_t cold_misses_ = 0;
  uint64_t total_ = 0;
};

}  // namespace fglb::reference

#endif  // FGLB_TESTS_REFERENCE_LIST_MATTSON_STACK_H_

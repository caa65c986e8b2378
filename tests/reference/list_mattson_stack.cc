#include "reference/list_mattson_stack.h"

namespace fglb::reference {

uint64_t ListMattsonStack::Access(PageId page) {
  ++total_;
  auto it = index_.find(page);
  if (it == index_.end()) {
    ++cold_misses_;
    stack_.push_front(page);
    index_[page] = stack_.begin();
    return 0;
  }
  uint64_t depth = 1;
  for (auto pos = stack_.begin(); pos != it->second; ++pos) ++depth;
  if (hits_.size() < depth) hits_.resize(depth, 0);
  ++hits_[depth - 1];
  stack_.splice(stack_.begin(), stack_, it->second);
  return depth;
}

void ListMattsonStack::Reset() {
  stack_.clear();
  index_.clear();
  hits_.clear();
  cold_misses_ = 0;
  total_ = 0;
}

}  // namespace fglb::reference

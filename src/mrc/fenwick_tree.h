#ifndef FGLB_MRC_FENWICK_TREE_H_
#define FGLB_MRC_FENWICK_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fglb {

// Fenwick (binary indexed) tree of non-negative counts over positions
// [0, size()): point update and prefix sum in O(log n). The one
// distance kernel behind both reuse-distance directions: the Mattson
// stack counts pages referenced more recently than a page's previous
// reference (LRU, backward), the OPT oracle counts distinct pages
// referenced before a page's next use (forward).
class FenwickTree {
 public:
  explicit FenwickTree(size_t positions = 0) : tree_(positions + 1, 0) {}

  size_t size() const { return tree_.size() - 1; }

  void Add(size_t pos, int64_t delta) {
    assert(pos < size());
    for (size_t i = pos + 1; i < tree_.size(); i += LowBit(i)) {
      tree_[i] += delta;
    }
  }

  // Sum of the counts at positions [0, pos].
  uint64_t PrefixSum(size_t pos) const {
    assert(pos < size());
    int64_t sum = 0;
    for (size_t i = pos + 1; i > 0; i -= LowBit(i)) sum += tree_[i];
    assert(sum >= 0);
    return static_cast<uint64_t>(sum);
  }

  // Zeroes every count, keeping the capacity.
  void Clear() { std::fill(tree_.begin(), tree_.end(), 0); }

  // Extends to `positions` positions (new ones count 0), keeping every
  // count. O(positions): unfold the tree into point counts, append,
  // fold back — cheaper than re-adding each count at O(log n).
  void Grow(size_t positions) {
    if (positions <= size()) return;
    for (size_t i = tree_.size() - 1; i > 0; --i) {
      const size_t parent = i + LowBit(i);
      if (parent < tree_.size()) tree_[parent] -= tree_[i];
    }
    tree_.resize(positions + 1, 0);
    for (size_t i = 1; i < tree_.size(); ++i) {
      const size_t parent = i + LowBit(i);
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

 private:
  static size_t LowBit(size_t i) { return i & (~i + 1); }

  std::vector<int64_t> tree_;  // 1-based; tree_[0] is unused
};

}  // namespace fglb

#endif  // FGLB_MRC_FENWICK_TREE_H_

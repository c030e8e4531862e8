#ifndef GRALMATCH_COMMON_UNION_FIND_H_
#define GRALMATCH_COMMON_UNION_FIND_H_

/// \file union_find.h
/// Disjoint-set forest with path halving and union by size. Used for
/// connected components, transitive closure and entity merging in the data
/// generator.

#include <cstdint>
#include <numeric>
#include <vector>

namespace gralmatch {

/// \brief Disjoint-set union (union-find).
class UnionFind {
 public:
  explicit UnionFind(size_t n = 0) { Reset(n); }

  /// Reset to n singleton sets.
  void Reset(size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0);
    size_.assign(n, 1);
    num_sets_ = n;
  }

  /// Representative of x's set (with path halving).
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merge the sets of a and b; returns false if already joined.
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --num_sets_;
    return true;
  }

  /// Size of the set containing x.
  size_t SetSize(size_t x) { return size_[Find(x)]; }

  /// Number of disjoint sets.
  size_t num_sets() const { return num_sets_; }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> size_;
  size_t num_sets_ = 0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_UNION_FIND_H_

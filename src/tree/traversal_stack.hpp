// Guarded DFS stack for tree traversals.
//
// The walkers used to run on bare `std::int32_t stack[512]` arrays with no
// overflow check — undefined behavior the moment a tree is deeper than the
// fixed bound assumes. This class keeps the fast path (an inline array that
// covers every tree the Morton build can produce: a depth-D octree demands
// at most 7*D + 8 pending entries, and the build caps D at the Morton
// resolution of 21 levels) but spills to a heap vector instead of writing
// past the end when a traversal ever needs more. Correctness of the
// traversal therefore no longer depends on invariants of the builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/morton.hpp"

namespace g5::tree {

/// Worst-case DFS stack demand for an octree of the given depth: along the
/// current path each ancestor level holds at most 7 pending siblings, plus
/// the 8 children just pushed at the deepest level.
[[nodiscard]] constexpr std::size_t dfs_stack_bound(int max_depth) noexcept {
  return 7 * static_cast<std::size_t>(max_depth > 0 ? max_depth : 0) + 8;
}

class TraversalStack {
 public:
  /// Inline capacity: the bound for the deepest tree the Morton build can
  /// emit (depth cap = 21 levels), rounded up a little.
  static constexpr std::size_t kInlineCapacity =
      dfs_stack_bound(math::kMortonBitsPerDim) + 8;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// High-water mark of the stack over its lifetime.
  [[nodiscard]] std::size_t max_size() const noexcept { return max_size_; }

  void push(std::int32_t v) {
    if (size_ < kInlineCapacity) {
      inline_[size_] = v;
    } else {
      spill(v);
    }
    ++size_;
    if (size_ > max_size_) max_size_ = size_;
  }

  std::int32_t pop() noexcept {
    --size_;
    if (size_ < kInlineCapacity) return inline_[size_];
    const std::int32_t v = spill_.back();
    spill_.pop_back();
    return v;
  }

 private:
  /// Out of line, so that push() stays small enough for the compiler to
  /// inline into the walk loop (a call per pushed child otherwise).
  [[gnu::noinline]] void spill(std::int32_t v) { spill_.push_back(v); }

  std::int32_t inline_[kInlineCapacity];
  std::vector<std::int32_t> spill_;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace g5::tree

// Test-side pairwise tree reduction: the reference shape that checks an
// associative merge (Min-Hash Combine) gives the same result under any
// grouping and on a real thread pool.

#ifndef SCPRT_TESTS_TREE_REDUCE_H_
#define SCPRT_TESTS_TREE_REDUCE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace scprt {

/// Reduces `items` to a single value by level-by-level pairwise merges:
/// adjacent pairs merge first, then pairs of those results, and so on. The
/// reduction shape is a pure function of the item count, and each level's
/// merges write only their own output slot, so the result is identical
/// under any scheduler — and identical to every other association whenever
/// `merge` is associative. Each level runs through `parallel_for` (serial
/// when null). An odd trailing item is carried to the next level unmerged.
/// Returns `empty` when `items` is empty.
template <typename T, typename Merge>
T TreeReduce(std::vector<T> items, const Merge& merge,
             const ParallelForFn& parallel_for, T empty = T{}) {
  if (items.empty()) return empty;
  while (items.size() > 1) {
    const std::size_t pairs = items.size() / 2;
    std::vector<T> next(pairs + items.size() % 2);
    const auto merge_pair = [&](std::size_t i) {
      next[i] = merge(std::move(items[2 * i]), std::move(items[2 * i + 1]));
    };
    if (parallel_for) {
      parallel_for(pairs, merge_pair);
    } else {
      SerialFor(pairs, merge_pair);
    }
    if (items.size() % 2 == 1) next.back() = std::move(items.back());
    items = std::move(next);
  }
  return std::move(items.front());
}

}  // namespace scprt

#endif  // SCPRT_TESTS_TREE_REDUCE_H_

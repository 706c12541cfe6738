// Hook type for data-parallel loops over independent items.
//
// Subsystems with pure per-item hot loops (Min-Hash signature refresh, edge
// correlation batches, per-cluster snapshot cores) run them through a
// ParallelForFn. The default executes serially; the engine layer
// (engine/shard_pool.h) substitutes a thread-pool implementation. Because
// every loop body writes only its own index's slot, results are identical
// under any scheduler — this is what keeps the parallel detector's output
// bit-identical to the serial one.

#ifndef SCPRT_COMMON_PARALLEL_H_
#define SCPRT_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace scprt {

/// Runs `body(i)` for every i in [0, n). Implementations may execute bodies
/// concurrently and in any order; bodies must be independent.
using ParallelForFn =
    std::function<void(std::size_t n,
                       const std::function<void(std::size_t)>& body)>;

/// The default hook: a plain serial loop.
inline void SerialFor(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace scprt

#endif  // SCPRT_COMMON_PARALLEL_H_

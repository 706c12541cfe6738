// Canonical per-quantum ingest form: every keyword that occurred in the
// quantum with its distinct users and their message counts, keywords
// ascending, each user list sorted ascending. One builder produces it for
// the serial detector and the sharded engine alike, which is what makes
// the engine's reports bit-identical to the serial detector's.
//
// Layout (CSR): four flat arrays instead of one vector per keyword.
// Keyword i's users and counts are users[offsets[i], offsets[i + 1]) and
// counts[offsets[i], offsets[i + 1]). The builder packs every (keyword,
// user) occurrence into one 64-bit key (keyword in the high half), radix
// sorts the keys — ascending keys are already the canonical order — and
// run-length encodes them: a run of equal keys is one distinct user, its
// length that user's message count. A reused aggregate keeps its buffers,
// so steady-state builds allocate nothing.

#ifndef SCPRT_AKG_QUANTUM_AGGREGATE_H_
#define SCPRT_AKG_QUANTUM_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "stream/message.h"

namespace scprt::akg {

/// One quantum reduced to per-keyword occurrence lists in canonical order.
/// The counts are a pure function of the quantum's (keyword, user)
/// occurrence multiset.
struct QuantumAggregate {
  QuantumIndex index = 0;
  /// Ascending and distinct.
  std::vector<KeywordId> keywords;
  /// keywords.size() + 1 entries, starting at 0.
  std::vector<std::uint32_t> offsets = {0};
  /// Per keyword: ascending and distinct.
  std::vector<UserId> users;
  /// Aligned with `users`: messages by that user mentioning that keyword
  /// this quantum (>= 1).
  std::vector<std::uint32_t> counts;

  /// Number of keywords.
  std::size_t size() const { return keywords.size(); }

  /// Keyword i's distinct users, ascending.
  std::span<const UserId> UsersOf(std::size_t i) const {
    return {users.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  /// Keyword i's per-user message counts, aligned with UsersOf(i).
  std::span<const std::uint32_t> CountsOf(std::size_t i) const {
    return {counts.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  friend bool operator==(const QuantumAggregate&,
                         const QuantumAggregate&) = default;
};

/// Reduces one quantum into `out`, replacing its content and reusing its
/// buffers.
void AggregateQuantum(const stream::Quantum& quantum, QuantumAggregate& out);

/// The same, into a fresh aggregate.
QuantumAggregate AggregateQuantum(const stream::Quantum& quantum);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_QUANTUM_AGGREGATE_H_

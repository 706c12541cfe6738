// Per-keyword user-id sets over the sliding window (Section 3.2: "This set
// U1 (called the id set) associated with a keyword n1 contains the ids of
// all those users who used this word in the current window").
//
// Supports O(1) amortized ingestion, exact window expiry, per-quantum
// distinct-user counts (the burstiness signal), and exact Jaccard between
// two keywords' id sets (the edge correlation EC).
//
// Internally the store is partitioned into a fixed number of keyword
// shards (keyword % kIdSetShards). Shards never share state, so the
// per-quantum fold + expiry runs shard-parallel through IngestAggregate's
// hook while every query and the Begin/Add/End path stay unchanged. All
// outputs are canonical (QuantumKeywords ascending, everything else
// content-addressed), so results do not depend on the shard count or on
// which thread folded which shard.
//
// Layout (flat, slot-indexed): each shard maps its keywords to dense slots
// (KeywordSlots, recycled when a keyword leaves the window); a slot holds
// the keyword's window users in an open-addressing user -> multiplicity
// table and its last-quantum support. The history is a fixed ring of w
// per-quantum pair buffers that are reused, not reallocated. Slot growth
// is shard-private, so the shard-parallel fold writes disjoint state.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <functional>
#include <utility>
#include <vector>

#include "akg/flat_map.h"
#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains id sets for every keyword seen in the last `window_length`
/// quanta. Usage per quantum: BeginQuantum(); Add(...)*; EndQuantum() — or
/// one IngestAggregate call with the quantum's canonical aggregate.
class UserIdSets {
 public:
  /// Keyword shards per store. Fixed (not tied to the thread count) so the
  /// data layout is identical no matter who drives the ingestion.
  static constexpr std::size_t kIdSetShards = 16;

  /// `window_length` is the paper's w, >= 1.
  explicit UserIdSets(std::size_t window_length);

  /// Opens a new quantum. Must alternate with EndQuantum.
  void BeginQuantum();

  /// Records that `user` used `keyword` in the open quantum. Duplicate
  /// (keyword, user) pairs within a quantum are collapsed.
  void Add(KeywordId keyword, UserId user);

  /// Closes the quantum, folds it into the window aggregate, and expires
  /// the quantum that fell out of the window.
  void EndQuantum();

  /// Ingests one whole quantum from its canonical aggregate — exactly
  /// equivalent to BeginQuantum + Add* + EndQuantum on the same content.
  /// `parallel_for` (serial default when null) runs the independent
  /// per-shard folds concurrently.
  void IngestAggregate(const QuantumAggregate& aggregate,
                       const ParallelForFn& parallel_for);

  /// Distinct users of `keyword` in the (just-closed) most recent quantum.
  std::size_t QuantumSupport(KeywordId keyword) const;

  /// Keywords that occurred in the most recent quantum, ascending.
  const std::vector<KeywordId>& QuantumKeywords() const {
    return last_quantum_keywords_;
  }

  /// Distinct users of `keyword` across the whole window (the node weight
  /// w_i of the rank function).
  std::size_t WindowSupport(KeywordId keyword) const;

  /// Calls visit(user) once for every distinct user of `keyword` across
  /// the window, in unspecified order. Allocates nothing.
  template <typename Visitor>
  void VisitWindowUsers(KeywordId keyword, Visitor&& visit) const {
    if (const U32Index* users = WindowTable(keyword)) {
      users->ForEach([&](UserId user, std::uint32_t) { visit(user); });
    }
  }

  /// Exact Jaccard coefficient of the two keywords' window id sets
  /// (|U1 n U2| / |U1 u U2|). 0 when either set is empty.
  double Jaccard(KeywordId a, KeywordId b) const;

  /// Number of keywords with non-empty window id sets.
  std::size_t active_keywords() const;

  /// Closed quanta currently retained (<= window length). Every quantum
  /// pushes one history entry into every shard, so the depth is uniform.
  std::size_t HistoryDepth() const { return depth_; }

  /// Visits every shard's retained history slot, oldest slot first:
  /// visitor(shard, slot, pairs) where `pairs` is that quantum's distinct
  /// (keyword, user) occurrences owned by the shard, grouped by keyword
  /// (sorted whenever the ingested aggregates were canonical).
  void VisitHistory(
      const std::function<void(
          std::size_t shard, std::size_t slot,
          const std::vector<std::pair<KeywordId, UserId>>& pairs)>& visitor)
      const;

  /// Serializes the per-shard quantum histories (the minimal generating
  /// state: window aggregates and last-quantum views are folds of it), in
  /// canonical (keyword, user)-sorted order. Must be called between quanta.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding, refolding the histories
  /// into window aggregates. Returns false on malformed input (shard count
  /// or history depth mismatch, overrun); the store is cleared then.
  bool Restore(BinaryReader& in);

 private:
  using Pairs = std::vector<std::pair<KeywordId, UserId>>;

  /// One keyword's window state, at its slot.
  struct KeywordState {
    // user -> multiplicity across the retained quanta.
    U32Index users;
    // Distinct users in the most recent closed quantum (0 if absent).
    std::uint32_t last_support = 0;
  };

  /// One keyword partition; a quantum touches every shard independently.
  struct Shard {
    KeywordSlots slots;
    // Indexed by slot.
    std::vector<KeywordState> keywords;
    // Ring of window_length per-quantum buffers of the quantum's distinct
    // (keyword, user) pairs, grouped by keyword; position head_ is the
    // oldest retained quantum.
    std::vector<Pairs> history;
    // Slots and ids of the most recent closed quantum's keywords, the ids
    // ascending.
    std::vector<std::uint32_t> last_slots;
    std::vector<KeywordId> last_quantum_keywords;
  };

  static std::size_t ShardOf(KeywordId keyword) {
    return keyword % kIdSetShards;
  }

  /// The keyword's window user table, or null when it is not in the window.
  const U32Index* WindowTable(KeywordId keyword) const;

  /// Ring position of the i-th oldest retained quantum.
  std::size_t RingPos(std::size_t i) const {
    return (head_ + i) % window_length_;
  }

  /// Folds one keyword's quantum users (distinct) into `shard`: support,
  /// keyword list, window multiplicities and the history buffer `pairs`.
  /// The single definition of the fold invariant — both the live fold and
  /// Restore go through it.
  static void FoldKeyword(Shard& shard, KeywordId keyword,
                          const std::vector<UserId>& users, Pairs& pairs);

  /// Takes one history buffer's pairs back out of the window aggregate and
  /// releases the slots of keywords left with no users.
  static void ExpirePairs(Shard& shard, const Pairs& pairs);

  /// Rebuilds the merged QuantumKeywords vector from the shards.
  void MergeQuantumKeywords();

  std::size_t window_length_;
  bool quantum_open_ = false;
  // The open quantum's (keyword, user) occurrences (Begin/Add/End path).
  Pairs pending_;
  std::vector<Shard> shards_;
  // History ring cursor, uniform across shards: every quantum pushes one
  // buffer into every shard.
  std::size_t head_ = 0;
  std::size_t depth_ = 0;
  // IngestAggregate's routing buffer: per shard, its aggregate entries.
  std::vector<std::vector<std::uint32_t>> owned_;
  // Merged view of the shards' last-quantum keywords, ascending.
  std::vector<KeywordId> last_quantum_keywords_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_

// The keyword window: for every keyword seen in the last w quanta, its
// user-id set (Section 3.2: "This set U1 (called the id set) associated
// with a keyword n1 contains the ids of all those users who used this word
// in the current window") and its Min-Hash sketch. Both are folds of the
// same per-quantum (keyword, user) occurrences, so one structure keeps
// them.
//
// Supports O(1) amortized ingestion, exact window expiry, per-quantum
// distinct-user counts (the burstiness signal), exact Jaccard between two
// keywords' id sets (the edge correlation EC), and window sketches: the
// Combine fold over the keyword's <= w per-quantum bottom-p sketches.
// Because Combine is exact under truncation, the fold is bit-identical to
// sketching the whole window union, at O(w * p) merge cost rather than
// O(|window id set|) rehash cost.
//
// Layout (flat, slot-indexed): the store is partitioned into a fixed
// number of keyword shards (keyword % kIdSetShards). Each shard maps its
// keywords to dense slots (KeywordSlots, recycled when a keyword leaves
// the window); a slot holds the keyword's window users in an
// open-addressing user -> multiplicity table, its last-quantum support,
// and the oldest and newest links of its sketch chain. The history is a
// ring of w reused per-quantum buffers. A buffer holds one run per
// occurring keyword: the keyword's slot, its distinct users and its
// quantum sketch, linked to the same keyword's run one occurrence later.
// Expiry walks the oldest buffer once: it takes each run's users back out
// of its slot's table and advances or releases the chain.
//
// Shards never share state, so the per-quantum fold + expiry runs
// shard-parallel through IngestAggregate's hook. All outputs are canonical
// (QuantumKeywords ascending, everything else content-addressed), so
// results do not depend on the shard count or on which thread folded which
// shard.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "akg/flat_map.h"
#include "akg/minhash.h"
#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains id sets and per-quantum sketches for every keyword seen in the
/// last `window_length` quanta. One IngestAggregate call per quantum.
class UserIdSets {
 public:
  /// Keyword shards per store. Fixed (not tied to the thread count) so the
  /// data layout is identical no matter who drives the ingestion.
  static constexpr std::size_t kIdSetShards = 16;

  /// `window_length` is the paper's w (>= 1); `p`, `seed` and `weighted`
  /// configure the sketcher.
  UserIdSets(std::size_t window_length, std::size_t p, std::uint64_t seed,
             bool weighted);

  /// The configured sketcher (p, seed, weighted flag).
  const WeightedMinHasher& hasher() const { return hasher_; }

  /// Ingests one whole quantum from its canonical aggregate (keywords
  /// ascending, users ascending and distinct): folds users, sketches each
  /// keyword's occurrences and expires the quantum falling out of the
  /// window. `parallel_for` (serial default when null) runs the independent
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
    if (const KeywordState* state = Find(keyword)) {
      state->users.ForEach([&](UserId user, std::uint32_t) { visit(user); });
    }
  }

  /// Exact Jaccard coefficient of the two keywords' window id sets
  /// (|U1 n U2| / |U1 u U2|). 0 when either set is empty.
  double Jaccard(KeywordId a, KeywordId b) const;

  /// The keyword's window sketch: the Combine fold over its per-quantum
  /// sketches, oldest first. Empty when the keyword did not occur in the
  /// window. In unweighted mode its Values() equal MinHasher::Signature of
  /// the window id set bit for bit.
  WeightedSketch WindowSketch(KeywordId keyword) const;

  /// Number of keywords with non-empty window id sets.
  std::size_t active_keywords() const;

  /// Drops every retained quantum.
  void Clear();

  /// Serializes the per-shard quantum histories (the minimal generating
  /// state of the id sets: window aggregates and last-quantum views are
  /// folds of it), in canonical (keyword, user)-sorted order. Must be
  /// called between quanta.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding, refolding the histories
  /// into window aggregates. Unweighted stores also rebuild their sketches
  /// from the histories (unweighted scores are key-only); weighted sketches
  /// depend on per-quantum message counts the histories do not record, so
  /// they stay empty until RestoreSketches. Returns false on malformed
  /// input (shard count or history depth mismatch, overrun); the store is
  /// cleared then.
  bool Restore(BinaryReader& in);

  /// Serializes the per-quantum sketches in canonical order (shards
  /// ascending, quanta oldest first, keywords ascending, entries in sketch
  /// order).
  void SaveSketches(BinaryWriter& out) const;

  /// Replaces the per-quantum sketches with SaveSketches()'s encoding, on a
  /// store whose histories were just restored. Every sketch must belong to
  /// the history run at the same ring position. Returns false on malformed
  /// or mismatched input; the store is cleared then.
  bool RestoreSketches(BinaryReader& in);

 private:
  /// A run's address: ring position and index within that position.
  struct Ref {
    std::uint32_t pos = kNoPos;
    std::uint32_t index = 0;
  };
  static constexpr std::uint32_t kNoPos = KeywordSlots::kNone;

  /// One keyword's window state, at its slot.
  struct KeywordState {
    // user -> multiplicity across the retained quanta.
    U32Index users;
    // Distinct users in the most recent closed quantum (0 if absent).
    std::uint32_t last_support = 0;
    // The keyword's oldest and newest runs.
    Ref head;
    Ref tail;
  };

  /// One keyword's occurrence in one quantum: `user_count` users, stored
  /// after the previous runs' in its ring position, and the sketch
  /// pool[sketch_begin, +sketch_size); linked to the keyword's next
  /// (younger) run.
  struct Run {
    KeywordId keyword = 0;
    std::uint32_t slot = 0;
    Ref next;
    std::uint32_t user_count = 0;
    std::uint32_t sketch_begin = 0;
    std::uint32_t sketch_size = 0;
  };

  /// One quantum's runs for one shard's keywords, keyword-ascending.
  struct QuantumRuns {
    std::vector<Run> runs;
    std::vector<UserId> users;
    std::vector<SketchEntry> pool;

    std::span<const SketchEntry> Sketch(const Run& run) const {
      return {pool.data() + run.sketch_begin, run.sketch_size};
    }
    void Clear() {
      runs.clear();
      users.clear();
      pool.clear();
    }
  };

  /// One keyword partition; a quantum touches every shard independently.
  struct Shard {
    KeywordSlots slots;
    // Indexed by slot.
    std::vector<KeywordState> keywords;
    // window_length reused positions; position head_ is the oldest.
    std::vector<QuantumRuns> ring;
    // Slots and ids of the most recent closed quantum's keywords, the ids
    // ascending.
    std::vector<std::uint32_t> last_slots;
    std::vector<KeywordId> last_quantum_keywords;
  };

  static std::size_t ShardOf(KeywordId keyword) {
    return keyword % kIdSetShards;
  }

  /// The keyword's window state, or null when it is not in the window.
  const KeywordState* Find(KeywordId keyword) const;

  /// Ring position of the i-th oldest retained quantum.
  std::size_t RingPos(std::size_t i) const {
    return (head_ + i) % window_length_;
  }

  /// Opens ring position `pos` of `shard` for a new quantum: clears the
  /// last-quantum view and, when `expire`, takes the oldest quantum stored
  /// there out of the window first.
  static void BeginQuantum(Shard& shard, std::uint32_t pos, bool expire);

  /// Folds one keyword's quantum users (distinct) and sketch into `shard`
  /// at ring position `pos`: support, keyword list, window multiplicities,
  /// the run and its chain link. The single definition of the fold
  /// invariant — both the live fold and Restore go through it.
  static void FoldRun(Shard& shard, std::uint32_t pos, KeywordId keyword,
                      std::span<const UserId> users,
                      std::span<const SketchEntry> sketch);

  /// Rebuilds the merged QuantumKeywords vector from the shards.
  void MergeQuantumKeywords();

  std::size_t window_length_;
  WeightedMinHasher hasher_;
  std::vector<Shard> shards_;
  // Ring cursor, uniform across shards: every quantum opens one position
  // in every shard.
  std::size_t head_ = 0;
  std::size_t depth_ = 0;
  // IngestAggregate's routing buffer: per shard, its aggregate entries.
  std::vector<std::vector<std::uint32_t>> owned_;
  // Merged view of the shards' last-quantum keywords, ascending.
  std::vector<KeywordId> last_quantum_keywords_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_

// Incremental per-quantum Min-Hash sketch ring over the sliding window.
//
// Where UserIdSets folds the quantum's (keyword, user) occurrences into
// window id sets, SketchWindow sketches them: each quantum deposits one
// bottom-p WeightedSketch per occurring keyword into a keyword-sharded ring
// (same partition law as UserIdSets — keyword % kShards), and a keyword's
// window signature is the Combine fold over its <= w per-quantum sketches
// instead of a rebuild from the folded window id set. Because Combine is
// exact under truncation, the fold's result is bit-identical to sketching
// the whole window union — at O(w * p) merge cost per keyword rather than
// O(|window id set|) rehash cost.
//
// Layout: the ring is w reused per-quantum slot buffers, each keeping its
// sketches back to back in one pool. Every entry links to the same
// keyword's entry one occurrence later, and a keyword's slot (KeywordSlots,
// recycled when it leaves the window) holds its oldest and newest entries,
// so a window sketch walks exactly the keyword's own sketches, oldest
// first, and expiry pops chain heads.
//
// Ingestion is shard-parallel (each shard owns disjoint keywords and its
// own ring), queries are read-only, and the ring's contents are a pure
// function of the ingested aggregates — no ordering anywhere depends on
// the thread count.

#ifndef SCPRT_AKG_SKETCH_WINDOW_H_
#define SCPRT_AKG_SKETCH_WINDOW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "akg/flat_map.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains per-quantum keyword sketches for the last `window_length`
/// quanta. One Ingest call per quantum, aligned with
/// UserIdSets::IngestAggregate.
class SketchWindow {
 public:
  /// Keyword shards — the same fixed partition as the id-set store, so one
  /// shard task can fold both structures for its keywords.
  static constexpr std::size_t kShards = UserIdSets::kIdSetShards;

  /// `window_length` is the paper's w (>= 1); `p`, `seed` and `weighted`
  /// configure the sketcher.
  SketchWindow(std::size_t window_length, std::size_t p, std::uint64_t seed,
               bool weighted);

  /// The configured sketcher (p, seed, weighted flag).
  const WeightedMinHasher& hasher() const { return hasher_; }

  /// Sketches one quantum's aggregate onto the ring (per-shard tasks run
  /// through `parallel_for`; serial when null) and expires the quantum
  /// falling out of the window.
  void Ingest(const QuantumAggregate& aggregate,
              const ParallelForFn& parallel_for);

  /// The keyword's window sketch: the Combine fold over its per-quantum
  /// sketches, oldest first. Empty when the keyword did not occur in the
  /// window. In unweighted mode its Values() equal MinHasher::Signature of
  /// the window id set bit for bit.
  WeightedSketch WindowSketch(KeywordId keyword) const;

  /// Quanta currently retained (<= window length; uniform across shards).
  std::size_t depth() const { return depth_; }

  /// Drops every retained quantum.
  void Clear();

  /// Rebuilds the ring from restored id-set histories — the per-quantum
  /// distinct (keyword, user) pairs are exactly the unweighted generating
  /// state, so unweighted snapshots need not carry the ring at all.
  /// Unweighted mode only: weighted scores depend on per-quantum message
  /// counts the histories do not record, so weighted rings round-trip
  /// through Save/Restore instead.
  void RebuildFromHistory(const UserIdSets& sets);

  /// Serializes the ring in canonical order (shards ascending, slots
  /// oldest first, keywords ascending, entries in sketch order).
  void Save(BinaryWriter& out) const;

  /// Replaces the ring with Save()'s encoding. Returns false on malformed
  /// input (the ring is cleared then).
  bool Restore(BinaryReader& in);

 private:
  /// A ring entry's address: ring position and index within that slot.
  struct Ref {
    std::uint32_t pos = kNoPos;
    std::uint32_t index = 0;
  };
  static constexpr std::uint32_t kNoPos = KeywordSlots::kNone;

  /// One keyword's sketch for one quantum — pool[begin, begin + size) of
  /// its slot — linked to the keyword's next (younger) entry.
  struct Entry {
    KeywordId keyword = 0;
    Ref next;
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  /// One quantum's sketches for one shard's keywords, keyword-ascending.
  struct Slot {
    std::vector<Entry> entries;
    std::vector<SketchEntry> pool;

    std::span<const SketchEntry> Sketch(const Entry& e) const {
      return {pool.data() + e.begin, e.size};
    }
    /// Appends `keyword`'s sketch (unlinked).
    void Append(KeywordId keyword, std::span<const SketchEntry> sketch);
    void Clear() {
      entries.clear();
      pool.clear();
    }
  };

  /// A keyword's entries in the window: oldest and newest.
  struct Chain {
    Ref head;
    Ref tail;
  };

  struct Shard {
    // window_length reused positions; position head_ is the oldest.
    std::vector<Slot> ring;
    KeywordSlots slots;
    std::vector<Chain> chains;  // indexed by slot
  };

  static std::size_t ShardOf(KeywordId keyword) { return keyword % kShards; }

  std::size_t RingPos(std::size_t i) const {
    return (head_ + i) % window_length_;
  }

  /// Links every entry of ring position `pos` onto its keyword's chain.
  static void LinkSlot(Shard& shard, std::uint32_t pos);

  /// Unlinks the entries of ring position `pos` (the oldest quantum) from
  /// their chains, releasing keywords that leave the window.
  static void ExpireSlot(Shard& shard, std::uint32_t pos);

  /// Resets the ring to `depth` empty quanta.
  void Reset(std::size_t depth);

  std::size_t window_length_;
  WeightedMinHasher hasher_;
  std::vector<Shard> shards_;
  std::size_t head_ = 0;
  std::size_t depth_ = 0;
  // Ingest's routing buffer: per shard, its aggregate entries.
  std::vector<std::vector<std::uint32_t>> owned_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_SKETCH_WINDOW_H_

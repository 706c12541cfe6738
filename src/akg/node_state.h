// The two-state (low/high) keyword automaton with hysteresis that decides
// AKG membership (Section 3.1).
//
// A keyword enters the AKG when it is bursty in a quantum: used by >= theta
// (the High State Threshold) distinct users. It stays while it is part of an
// event cluster, irrespective of subsequent frequency; it is evicted when it
// becomes stale (no occurrence in the last w quanta) or when it has neither
// been bursty in the last w quanta nor belongs to any cluster (the paper's
// lazy update, smoothed over the window).
//
// Layout: keywords map to recycled dense slots (KeywordSlots) holding their
// stamps and membership; AKG members are listed for the eviction sweep; and
// pruning runs off an expiry wheel — w buckets of slots keyed by last-seen
// quantum (mod w) — so a quantum drains only the buckets its horizon
// passed instead of sweeping every tracked keyword.

#ifndef SCPRT_AKG_NODE_STATE_H_
#define SCPRT_AKG_NODE_STATE_H_

#include <functional>
#include <limits>
#include <vector>

#include "akg/flat_map.h"
#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::akg {

/// Per-quantum transition report.
struct NodeStateUpdate {
  /// Keywords newly admitted to the AKG this quantum (low -> high).
  std::vector<KeywordId> entered;
  /// All keywords in high state this quantum — the paper's set (1). A
  /// superset of `entered`.
  std::vector<KeywordId> bursty;
  /// Keywords already in the AKG that occurred this quantum without being
  /// bursty — the paper's set (2) minus set (1).
  std::vector<KeywordId> seen_in_akg;
  /// Keywords evicted from the AKG this quantum.
  std::vector<KeywordId> removed;
};

/// Tracks low/high state for every keyword ever seen.
class NodeStateAutomaton {
 public:
  /// `high_threshold` is theta (distinct users/quantum); `window_length` is
  /// w, used for both the staleness and the burst-recency horizon.
  NodeStateAutomaton(std::uint32_t high_threshold,
                     std::size_t window_length);

  /// Processes one closed quantum. `quantum_keywords` lists keywords that
  /// occurred, with their distinct-user counts; `now` is the quantum index;
  /// `in_cluster` reports whether a keyword currently belongs to any
  /// discovered cluster (AKG retention rule).
  NodeStateUpdate ProcessQuantum(
      QuantumIndex now,
      const std::vector<std::pair<KeywordId, std::uint32_t>>&
          quantum_keywords,
      const std::function<bool(KeywordId)>& in_cluster);

  /// True if the keyword is currently an AKG node.
  bool InAkg(KeywordId keyword) const {
    const std::uint32_t slot = slots_.Find(keyword);
    return slot != KeywordSlots::kNone && states_[slot].in_akg;
  }

  /// Number of AKG nodes.
  std::size_t akg_size() const { return members_.size(); }

  /// Number of keywords tracked (CKG-side node count over history; entries
  /// older than w quanta are pruned, so this approximates the CKG node
  /// count of the current window).
  std::size_t tracked_keywords() const { return slots_.size(); }

  std::uint32_t high_threshold() const { return high_threshold_; }

  /// Serializes the automaton (last-seen / last-bursty stamps and AKG
  /// membership) keyword-sorted, so equal states give identical bytes.
  void Save(BinaryWriter& out) const;

  /// Replaces this automaton's state with Save()'s encoding. Returns false
  /// on malformed input (including a last-bursty stamp or member without a
  /// last-seen stamp); the automaton is cleared then.
  bool Restore(BinaryReader& in);

  /// Drops every tracked keyword.
  void Clear();

 private:
  /// One tracked keyword, at its slot. A keyword is tracked exactly while
  /// it carries a last-seen stamp.
  struct KeywordState {
    KeywordId keyword = 0;
    // Last quantum the keyword occurred in any message (prune when stale).
    QuantumIndex last_seen = 0;
    // Last quantum the keyword was bursty, when has_bursty. Only set for
    // AKG members.
    QuantumIndex last_bursty = 0;
    bool has_bursty = false;
    bool in_akg = false;
    // Position of the slot in its wheel bucket; kUnfiled while this
    // quantum's update has it out of the wheel.
    std::uint32_t wheel_index = kUnfiled;
  };

  static constexpr std::uint32_t kUnfiled = KeywordSlots::kNone;

  /// The slot of `keyword`, opening a fresh state when it is untracked
  /// (`*opened` says which).
  std::uint32_t Track(KeywordId keyword, bool* opened);

  std::size_t WheelBucket(QuantumIndex stamp) const;

  /// Files `slot` under its last-seen stamp and lowers the wheel's floor.
  void File(std::uint32_t slot);

  /// Takes a filed `slot` out of its bucket (before its stamp changes).
  void Unfile(std::uint32_t slot);

  /// Prunes every filed keyword last seen at or before `horizon` (none is
  /// an AKG member once the eviction sweep ran), draining each bucket the
  /// horizon passed since the last drain.
  void DrainWheel(QuantumIndex horizon);

  std::uint32_t high_threshold_;
  std::size_t window_length_;
  KeywordSlots slots_;
  std::vector<KeywordState> states_;  // indexed by slot
  // Slots of the AKG members, unordered.
  std::vector<std::uint32_t> members_;
  // Expiry wheel: bucket (stamp mod w) holds the slots last seen at such a
  // stamp. Between quanta every tracked slot is filed exactly once, in the
  // bucket of its last-seen stamp, and every filed stamp is >=
  // wheel_floor_. Stamps need not be consecutive: a drain covers every
  // stamp from the floor up to the horizon, all buckets once that span
  // reaches w.
  std::vector<std::vector<std::uint32_t>> wheel_;
  QuantumIndex wheel_floor_ = std::numeric_limits<QuantumIndex>::max();
  // This quantum's keyword slots (reused buffer).
  std::vector<std::uint32_t> touched_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_NODE_STATE_H_

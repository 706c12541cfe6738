#include "akg/node_state.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace scprt::akg {

NodeStateAutomaton::NodeStateAutomaton(std::uint32_t high_threshold,
                                       std::size_t window_length)
    : high_threshold_(high_threshold),
      window_length_(window_length),
      wheel_(window_length) {
  SCPRT_CHECK(high_threshold >= 1);
  SCPRT_CHECK(window_length >= 1);
}

std::uint32_t NodeStateAutomaton::Track(KeywordId keyword, bool* opened) {
  const std::uint32_t slot = slots_.Acquire(keyword, opened);
  if (slot >= states_.size()) states_.resize(slot + 1);
  if (*opened) {
    states_[slot] = KeywordState{};
    states_[slot].keyword = keyword;
  }
  return slot;
}

std::size_t NodeStateAutomaton::WheelBucket(QuantumIndex stamp) const {
  const auto w = static_cast<QuantumIndex>(window_length_);
  return static_cast<std::size_t>((stamp % w + w) % w);
}

void NodeStateAutomaton::File(std::uint32_t slot) {
  KeywordState& state = states_[slot];
  std::vector<std::uint32_t>& bucket = wheel_[WheelBucket(state.last_seen)];
  state.wheel_index = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(slot);
  wheel_floor_ = std::min(wheel_floor_, state.last_seen);
}

void NodeStateAutomaton::Unfile(std::uint32_t slot) {
  KeywordState& state = states_[slot];
  std::vector<std::uint32_t>& bucket = wheel_[WheelBucket(state.last_seen)];
  SCPRT_DCHECK(bucket[state.wheel_index] == slot);
  const std::uint32_t moved = bucket.back();
  bucket[state.wheel_index] = moved;
  states_[moved].wheel_index = state.wheel_index;
  bucket.pop_back();
  state.wheel_index = kUnfiled;
}

void NodeStateAutomaton::DrainWheel(QuantumIndex horizon) {
  if (horizon < wheel_floor_) return;
  // Stamps wheel_floor_..horizon expire; once they span w stamps every
  // bucket holds some of them. Unsigned arithmetic: the span of two
  // arbitrary stamps does not fit a signed difference.
  const std::uint64_t span = static_cast<std::uint64_t>(horizon) -
                             static_cast<std::uint64_t>(wheel_floor_);
  std::size_t buckets = window_length_;
  if (span < window_length_ - 1) buckets = static_cast<std::size_t>(span) + 1;
  const std::size_t first =
      buckets == window_length_ ? 0 : WheelBucket(wheel_floor_);
  for (std::size_t i = 0; i < buckets; ++i) {
    std::vector<std::uint32_t>& bucket = wheel_[(first + i) % window_length_];
    std::size_t kept = 0;
    for (std::uint32_t slot : bucket) {
      KeywordState& state = states_[slot];
      if (state.last_seen <= horizon) {
        SCPRT_DCHECK(!state.in_akg);
        slots_.Release(state.keyword);
        continue;
      }
      // A stamp ahead of the window (a restored future quantum) stays.
      state.wheel_index = static_cast<std::uint32_t>(kept);
      bucket[kept++] = slot;
    }
    bucket.resize(kept);
  }
  wheel_floor_ = horizon + 1;
}

NodeStateUpdate NodeStateAutomaton::ProcessQuantum(
    QuantumIndex now,
    const std::vector<std::pair<KeywordId, std::uint32_t>>& quantum_keywords,
    const std::function<bool(KeywordId)>& in_cluster) {
  NodeStateUpdate update;

  // This quantum's keywords leave the wheel until the drain below is done;
  // they cannot expire (their stamp is `now`) and are re-filed after it.
  touched_.clear();
  for (const auto& [keyword, users] : quantum_keywords) {
    bool opened;
    const std::uint32_t slot = Track(keyword, &opened);
    KeywordState& state = states_[slot];
    if (opened) {
      touched_.push_back(slot);
    } else if (state.wheel_index != kUnfiled) {  // first time this quantum
      Unfile(slot);
      touched_.push_back(slot);
    }
    state.last_seen = now;
    const bool bursty = users >= high_threshold_;
    if (bursty) {
      state.last_bursty = now;
      state.has_bursty = true;
      update.bursty.push_back(keyword);
      if (!state.in_akg) {
        state.in_akg = true;
        members_.push_back(slot);
        update.entered.push_back(keyword);
      }
    } else if (state.in_akg) {
      update.seen_in_akg.push_back(keyword);
    }
  }

  // Eviction sweep over AKG members (the AKG is small; Section 7.4 measures
  // < 5% of keywords bursty). Two rules:
  //   stale:    no occurrence in the last w quanta;
  //   faded:    not bursty in the last w quanta and in no cluster.
  const QuantumIndex horizon = now - static_cast<QuantumIndex>(window_length_);
  std::size_t kept = 0;
  for (std::uint32_t slot : members_) {
    KeywordState& state = states_[slot];
    const bool stale = state.last_seen <= horizon;
    bool faded = false;
    if (!stale) {
      const bool recently_bursty =
          state.has_bursty && state.last_bursty > horizon;
      faded = !recently_bursty && !in_cluster(state.keyword);
    }
    if (stale || faded) {
      state.in_akg = false;
      state.has_bursty = false;
      update.removed.push_back(state.keyword);
    } else {
      members_[kept++] = slot;
    }
  }
  members_.resize(kept);

  // Prune the CKG-side bookkeeping of stale keywords so memory tracks the
  // window, not the whole stream history.
  DrainWheel(horizon);
  for (std::uint32_t slot : touched_) File(slot);

  std::sort(update.entered.begin(), update.entered.end());
  std::sort(update.bursty.begin(), update.bursty.end());
  std::sort(update.seen_in_akg.begin(), update.seen_in_akg.end());
  std::sort(update.removed.begin(), update.removed.end());
  return update;
}

void NodeStateAutomaton::Clear() {
  slots_.Clear();
  states_.clear();
  members_.clear();
  for (auto& bucket : wheel_) bucket.clear();
  wheel_floor_ = std::numeric_limits<QuantumIndex>::max();
}

namespace {

void SaveStamps(BinaryWriter& out,
                std::vector<std::pair<KeywordId, QuantumIndex>>& stamps) {
  std::sort(stamps.begin(), stamps.end());
  out.U64(stamps.size());
  for (const auto& [keyword, stamp] : stamps) {
    out.U32(keyword);
    out.I64(stamp);
  }
}

}  // namespace

void NodeStateAutomaton::Save(BinaryWriter& out) const {
  std::vector<std::pair<KeywordId, QuantumIndex>> last_seen;
  std::vector<std::pair<KeywordId, QuantumIndex>> last_bursty;
  last_seen.reserve(slots_.size());
  for (const auto& bucket : wheel_) {
    for (std::uint32_t slot : bucket) {
      const KeywordState& state = states_[slot];
      last_seen.emplace_back(state.keyword, state.last_seen);
      if (state.has_bursty) {
        last_bursty.emplace_back(state.keyword, state.last_bursty);
      }
    }
  }
  SaveStamps(out, last_seen);
  SaveStamps(out, last_bursty);
  std::vector<KeywordId> members;
  members.reserve(members_.size());
  for (std::uint32_t slot : members_) members.push_back(states_[slot].keyword);
  std::sort(members.begin(), members.end());
  out.U64(members.size());
  for (KeywordId keyword : members) out.U32(keyword);
}

bool NodeStateAutomaton::Restore(BinaryReader& in) {
  Clear();
  const auto fail = [&] {
    Clear();
    in.Fail();
    return false;
  };
  const std::uint64_t seen = in.U64();
  if (!in.CheckLength(seen, 12)) return fail();
  for (std::uint64_t i = 0; i < seen; ++i) {
    const KeywordId keyword = in.U32();
    const QuantumIndex stamp = in.I64();
    bool opened;
    const std::uint32_t slot = Track(keyword, &opened);
    if (!in.ok() || !opened) return fail();
    states_[slot].last_seen = stamp;
  }
  const std::uint64_t bursty = in.U64();
  if (!in.CheckLength(bursty, 12)) return fail();
  for (std::uint64_t i = 0; i < bursty; ++i) {
    const KeywordId keyword = in.U32();
    const QuantumIndex stamp = in.I64();
    // A last-bursty stamp belongs to a tracked keyword, once.
    const std::uint32_t slot = slots_.Find(keyword);
    if (!in.ok() || slot == KeywordSlots::kNone || states_[slot].has_bursty) {
      return fail();
    }
    states_[slot].last_bursty = stamp;
    states_[slot].has_bursty = true;
  }
  const std::uint64_t members = in.U64();
  if (!in.CheckLength(members, 4)) return fail();
  for (std::uint64_t i = 0; i < members; ++i) {
    const KeywordId keyword = in.U32();
    // Every member must carry a last-seen stamp (the eviction sweep
    // dereferences it).
    const std::uint32_t slot = slots_.Find(keyword);
    if (!in.ok() || slot == KeywordSlots::kNone || states_[slot].in_akg) {
      return fail();
    }
    states_[slot].in_akg = true;
    members_.push_back(slot);
  }
  for (std::uint32_t slot = 0; slot < states_.size(); ++slot) File(slot);
  return true;
}

}  // namespace scprt::akg

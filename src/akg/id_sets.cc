#include "akg/id_sets.h"

#include <algorithm>

#include "common/check.h"

namespace scprt::akg {

UserIdSets::UserIdSets(std::size_t window_length)
    : window_length_(window_length),
      shards_(kIdSetShards),
      owned_(kIdSetShards) {
  SCPRT_CHECK(window_length >= 1);
  for (Shard& shard : shards_) shard.history.resize(window_length_);
}

void UserIdSets::BeginQuantum() {
  SCPRT_CHECK(!quantum_open_);
  quantum_open_ = true;
  pending_.clear();
}

void UserIdSets::Add(KeywordId keyword, UserId user) {
  SCPRT_DCHECK(quantum_open_);
  pending_.emplace_back(keyword, user);
}

void UserIdSets::EndQuantum() {
  SCPRT_CHECK(quantum_open_);
  quantum_open_ = false;
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  // The distinct pairs, sorted, are exactly a canonical aggregate whose
  // message counts are never read here.
  QuantumAggregate aggregate;
  for (const auto& [keyword, user] : pending_) {
    if (aggregate.keywords.empty() ||
        aggregate.keywords.back().keyword != keyword) {
      aggregate.keywords.push_back({keyword, {}, {}});
    }
    aggregate.keywords.back().users.push_back(user);
  }
  IngestAggregate(aggregate, nullptr);
}

void UserIdSets::FoldKeyword(Shard& shard, KeywordId keyword,
                             const std::vector<UserId>& users, Pairs& pairs) {
  bool opened;
  const std::uint32_t slot = shard.slots.Acquire(keyword, &opened);
  if (slot >= shard.keywords.size()) shard.keywords.resize(slot + 1);
  KeywordState& state = shard.keywords[slot];
  state.last_support = static_cast<std::uint32_t>(users.size());
  shard.last_slots.push_back(slot);
  shard.last_quantum_keywords.push_back(keyword);
  for (UserId user : users) {
    state.users.Increment(user);
    pairs.emplace_back(keyword, user);
  }
}

void UserIdSets::ExpirePairs(Shard& shard, const Pairs& pairs) {
  // Pairs are grouped by keyword: one slot lookup per keyword run.
  for (std::size_t i = 0; i < pairs.size();) {
    const KeywordId keyword = pairs[i].first;
    const std::uint32_t slot = shard.slots.Find(keyword);
    SCPRT_DCHECK(slot != KeywordSlots::kNone);
    U32Index& users = shard.keywords[slot].users;
    for (; i < pairs.size() && pairs[i].first == keyword; ++i) {
      users.Decrement(pairs[i].second);
    }
    if (users.size() == 0) shard.slots.Release(keyword);
  }
}

void UserIdSets::MergeQuantumKeywords() {
  last_quantum_keywords_.clear();
  for (const Shard& shard : shards_) {
    last_quantum_keywords_.insert(last_quantum_keywords_.end(),
                                  shard.last_quantum_keywords.begin(),
                                  shard.last_quantum_keywords.end());
  }
  // Canonical order: reports derived downstream must not depend on message
  // arrival order within the quantum (the parallel engine ingests
  // keyword-sharded aggregates in slice order).
  std::sort(last_quantum_keywords_.begin(), last_quantum_keywords_.end());
}

void UserIdSets::IngestAggregate(const QuantumAggregate& aggregate,
                                 const ParallelForFn& parallel_for) {
  SCPRT_CHECK(!quantum_open_);
  // One routing pass up front so each shard folds only its own entries
  // instead of re-scanning the whole aggregate.
  for (auto& owned : owned_) owned.clear();
  for (std::uint32_t i = 0; i < aggregate.keywords.size(); ++i) {
    owned_[ShardOf(aggregate.keywords[i].keyword)].push_back(i);
  }
  // The new quantum takes the ring position of the oldest one when the
  // window is full (that quantum expires first), the next free one
  // otherwise.
  const bool full = depth_ == window_length_;
  const std::size_t pos = RingPos(full ? 0 : depth_);
  const auto ingest_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    for (std::uint32_t slot : shard.last_slots) {
      shard.keywords[slot].last_support = 0;
    }
    shard.last_slots.clear();
    shard.last_quantum_keywords.clear();
    Pairs& pairs = shard.history[pos];
    if (full) ExpirePairs(shard, pairs);
    pairs.clear();
    // Exact reservation: a reused buffer grows only to its largest quantum.
    std::size_t count = 0;
    for (std::uint32_t i : owned_[s]) {
      count += aggregate.keywords[i].users.size();
    }
    pairs.reserve(count);
    for (std::uint32_t i : owned_[s]) {
      const QuantumAggregate::Entry& entry = aggregate.keywords[i];
      FoldKeyword(shard, entry.keyword, entry.users, pairs);
    }
  };
  if (parallel_for) {
    parallel_for(kIdSetShards, ingest_shard);
  } else {
    SerialFor(kIdSetShards, ingest_shard);
  }
  if (full) {
    head_ = RingPos(1);
  } else {
    ++depth_;
  }
  MergeQuantumKeywords();
}

const U32Index* UserIdSets::WindowTable(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  const std::uint32_t slot = shard.slots.Find(keyword);
  return slot == KeywordSlots::kNone ? nullptr : &shard.keywords[slot].users;
}

std::size_t UserIdSets::QuantumSupport(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  const std::uint32_t slot = shard.slots.Find(keyword);
  return slot == KeywordSlots::kNone ? 0 : shard.keywords[slot].last_support;
}

std::size_t UserIdSets::WindowSupport(KeywordId keyword) const {
  const U32Index* users = WindowTable(keyword);
  return users == nullptr ? 0 : users->size();
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  const U32Index* small = WindowTable(a);
  const U32Index* large = WindowTable(b);
  if (small == nullptr || large == nullptr) return 0.0;
  if (small->size() > large->size()) std::swap(small, large);
  const std::size_t intersection = small->CountShared(*large);
  const std::size_t unioned = small->size() + large->size() - intersection;
  return unioned == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(unioned);
}

void UserIdSets::VisitHistory(
    const std::function<void(
        std::size_t shard, std::size_t slot,
        const std::vector<std::pair<KeywordId, UserId>>& pairs)>& visitor)
    const {
  for (std::size_t s = 0; s < kIdSetShards; ++s) {
    for (std::size_t q = 0; q < depth_; ++q) {
      visitor(s, q, shards_[s].history[RingPos(q)]);
    }
  }
}

std::size_t UserIdSets::active_keywords() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.slots.size();
  return total;
}

void UserIdSets::Save(BinaryWriter& out) const {
  SCPRT_CHECK(!quantum_open_);
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  for (const Shard& shard : shards_) {
    out.U32(static_cast<std::uint32_t>(depth_));
    for (std::size_t q = 0; q < depth_; ++q) {
      Pairs sorted = shard.history[RingPos(q)];
      std::sort(sorted.begin(), sorted.end());
      out.U64(sorted.size());
      for (const auto& [keyword, user] : sorted) {
        out.U32(keyword);
        out.U32(user);
      }
    }
  }
}

bool UserIdSets::Restore(BinaryReader& in) {
  const auto reset = [this] {
    shards_.assign(kIdSetShards, Shard{});
    for (Shard& shard : shards_) shard.history.resize(window_length_);
    head_ = 0;
    depth_ = 0;
    last_quantum_keywords_.clear();
    pending_.clear();
    quantum_open_ = false;
  };
  reset();
  if (in.U32() != kIdSetShards || in.U64() != window_length_) {
    in.Fail();
    return false;
  }
  std::uint32_t depth0 = 0;
  std::vector<UserId> users;
  for (std::size_t s = 0; s < kIdSetShards; ++s) {
    Shard& shard = shards_[s];
    const std::uint32_t depth = in.U32();
    if (s == 0) depth0 = depth;
    // Every quantum pushes one entry into every shard, so depths must
    // agree (and never exceed the window).
    if (depth != depth0 || depth > window_length_) {
      in.Fail();
      break;
    }
    for (std::uint32_t q = 0; q < depth; ++q) {
      const std::uint64_t count = in.U64();
      if (!in.CheckLength(count, 8)) break;
      Pairs entry;
      entry.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        const KeywordId keyword = in.U32();
        const UserId user = in.U32();
        // Canonical form: strictly ascending (so pairs are distinct) and
        // shard-local keywords.
        if (ShardOf(keyword) != s ||
            (!entry.empty() && entry.back() >= std::pair{keyword, user})) {
          in.Fail();
          break;
        }
        entry.emplace_back(keyword, user);
      }
      if (!in.ok()) break;
      // Each quantum refolds as if ingested; only the newest one's
      // last-quantum view survives.
      for (std::uint32_t slot : shard.last_slots) {
        shard.keywords[slot].last_support = 0;
      }
      shard.last_slots.clear();
      shard.last_quantum_keywords.clear();
      Pairs& pairs = shard.history[q];
      for (std::size_t i = 0; i < entry.size();) {
        const KeywordId keyword = entry[i].first;
        users.clear();
        for (; i < entry.size() && entry[i].first == keyword; ++i) {
          users.push_back(entry[i].second);
        }
        FoldKeyword(shard, keyword, users, pairs);
      }
    }
    if (!in.ok()) break;
  }
  if (!in.ok()) {
    reset();
    return false;
  }
  depth_ = depth0;
  MergeQuantumKeywords();
  return true;
}

}  // namespace scprt::akg

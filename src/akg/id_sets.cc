#include "akg/id_sets.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scprt::akg {

UserIdSets::UserIdSets(std::size_t window_length, std::size_t p,
                       std::uint64_t seed, bool weighted)
    : window_length_(window_length),
      hasher_(p, seed, weighted),
      owned_(kIdSetShards) {
  SCPRT_CHECK(window_length >= 1);
  Clear();
}

void UserIdSets::Clear() {
  shards_.assign(kIdSetShards, Shard{});
  for (Shard& shard : shards_) shard.ring.resize(window_length_);
  head_ = 0;
  depth_ = 0;
  last_quantum_keywords_.clear();
}

void UserIdSets::BeginQuantum(Shard& shard, std::uint32_t pos, bool expire) {
  for (std::uint32_t slot : shard.last_slots) {
    shard.keywords[slot].last_support = 0;
  }
  shard.last_slots.clear();
  shard.last_quantum_keywords.clear();
  QuantumRuns& oldest = shard.ring[pos];
  if (expire) {
    // Every run is its keyword's chain head; its stored slot saves a
    // lookup.
    const UserId* user = oldest.users.data();
    for (const Run& run : oldest.runs) {
      KeywordState& state = shard.keywords[run.slot];
      SCPRT_DCHECK(state.head.pos == pos);
      for (const UserId* end = user + run.user_count; user != end; ++user) {
        state.users.Decrement(*user);
      }
      if (run.next.pos == kNoPos) {
        // The keyword's last run: its users are all gone too.
        SCPRT_DCHECK(state.users.size() == 0);
        shard.slots.Release(run.keyword);
      } else {
        state.head = run.next;
      }
    }
  }
  oldest.Clear();
}

void UserIdSets::FoldRun(Shard& shard, std::uint32_t pos, KeywordId keyword,
                         std::span<const UserId> users,
                         std::span<const SketchEntry> sketch) {
  QuantumRuns& quantum = shard.ring[pos];
  SCPRT_DCHECK(quantum.runs.empty() || quantum.runs.back().keyword < keyword);
  bool opened;
  const std::uint32_t slot = shard.slots.Acquire(keyword, &opened);
  if (slot >= shard.keywords.size()) shard.keywords.resize(slot + 1);
  KeywordState& state = shard.keywords[slot];
  state.last_support = static_cast<std::uint32_t>(users.size());
  shard.last_slots.push_back(slot);
  shard.last_quantum_keywords.push_back(keyword);
  for (UserId user : users) state.users.Increment(user);

  const Ref ref{pos, static_cast<std::uint32_t>(quantum.runs.size())};
  quantum.runs.push_back(Run{keyword, slot, Ref{},
                             static_cast<std::uint32_t>(users.size()),
                             static_cast<std::uint32_t>(quantum.pool.size()),
                             static_cast<std::uint32_t>(sketch.size())});
  quantum.users.insert(quantum.users.end(), users.begin(), users.end());
  quantum.pool.insert(quantum.pool.end(), sketch.begin(), sketch.end());
  if (opened) {
    state.head = ref;
  } else {
    shard.ring[state.tail.pos].runs[state.tail.index].next = ref;
  }
  state.tail = ref;
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
  // One routing pass up front so each shard folds only its own entries
  // instead of re-scanning the whole aggregate; the aggregate is
  // keyword-ascending, so each shard's entries stay keyword-ascending too.
  for (auto& owned : owned_) owned.clear();
  for (std::uint32_t i = 0; i < aggregate.size(); ++i) {
    owned_[ShardOf(aggregate.keywords[i])].push_back(i);
  }
  // The new quantum takes the ring position of the oldest one when the
  // window is full (that quantum expires first), the next free one
  // otherwise.
  const bool full = depth_ == window_length_;
  const auto pos = static_cast<std::uint32_t>(RingPos(full ? 0 : depth_));
  const auto ingest_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    BeginQuantum(shard, pos, full);
    // Exact reservations: a reused position grows only to its largest
    // quantum, without doubling slack.
    std::size_t users = 0;
    std::size_t pooled = 0;
    for (std::uint32_t i : owned_[s]) {
      const std::size_t n = aggregate.UsersOf(i).size();
      users += n;
      pooled += std::min(hasher_.p(), n);
    }
    QuantumRuns& quantum = shard.ring[pos];
    quantum.runs.reserve(owned_[s].size());
    quantum.users.reserve(users);
    quantum.pool.reserve(pooled);
    // Per-thread sketch buffer: shards fold through the parallel hook.
    thread_local WeightedSketch sketch;
    for (std::uint32_t i : owned_[s]) {
      const std::span<const UserId> users = aggregate.UsersOf(i);
      hasher_.QuantumSketchInto(aggregate.index, users, aggregate.CountsOf(i),
                                sketch);
      FoldRun(shard, pos, aggregate.keywords[i], users, sketch);
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

const UserIdSets::KeywordState* UserIdSets::Find(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  const std::uint32_t slot = shard.slots.Find(keyword);
  return slot == KeywordSlots::kNone ? nullptr : &shard.keywords[slot];
}

std::size_t UserIdSets::QuantumSupport(KeywordId keyword) const {
  const KeywordState* state = Find(keyword);
  return state == nullptr ? 0 : state->last_support;
}

std::size_t UserIdSets::WindowSupport(KeywordId keyword) const {
  const KeywordState* state = Find(keyword);
  return state == nullptr ? 0 : state->users.size();
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  const KeywordState* state_a = Find(a);
  const KeywordState* state_b = Find(b);
  if (state_a == nullptr || state_b == nullptr) return 0.0;
  const U32Index* small = &state_a->users;
  const U32Index* large = &state_b->users;
  if (small->size() > large->size()) std::swap(small, large);
  const std::size_t intersection = small->CountShared(*large);
  const std::size_t unioned = small->size() + large->size() - intersection;
  return unioned == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(unioned);
}

WeightedSketch UserIdSets::WindowSketch(KeywordId keyword) const {
  const KeywordState* state = Find(keyword);
  if (state == nullptr) return {};
  const Shard& shard = shards_[ShardOf(keyword)];
  const QuantumRuns* quantum = &shard.ring[state->head.pos];
  const Run* run = &quantum->runs[state->head.index];
  const std::span<const SketchEntry> oldest = quantum->Sketch(*run);
  WeightedSketch acc(oldest.begin(), oldest.end());
  // Per-thread merge buffer: refreshes run through the parallel hook.
  thread_local WeightedSketch scratch;
  while (run->next.pos != kNoPos) {
    quantum = &shard.ring[run->next.pos];
    run = &quantum->runs[run->next.index];
    WeightedMinHasher::FoldInto(acc, quantum->Sketch(*run), hasher_.p(),
                                scratch);
  }
  return acc;
}

std::size_t UserIdSets::active_keywords() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.slots.size();
  return total;
}

void UserIdSets::Save(BinaryWriter& out) const {
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  for (const Shard& shard : shards_) {
    out.U32(static_cast<std::uint32_t>(depth_));
    for (std::size_t q = 0; q < depth_; ++q) {
      // Runs are keyword-ascending with ascending users: the pairs come
      // out (keyword, user)-sorted.
      const QuantumRuns& quantum = shard.ring[RingPos(q)];
      out.U64(quantum.users.size());
      const UserId* user = quantum.users.data();
      for (const Run& run : quantum.runs) {
        for (const UserId* end = user + run.user_count; user != end; ++user) {
          out.U32(run.keyword);
          out.U32(*user);
        }
      }
    }
  }
}

bool UserIdSets::Restore(BinaryReader& in) {
  Clear();
  if (in.U32() != kIdSetShards || in.U64() != window_length_) {
    in.Fail();
    return false;
  }
  std::uint32_t depth0 = 0;
  std::vector<UserId> users;
  WeightedSketch sketch;
  const auto fold = [&](Shard& shard, std::uint32_t q, KeywordId keyword) {
    // Unweighted scores are key-only, so quantum index 0 is fine; weighted
    // sketches come from RestoreSketches.
    if (!hasher_.weighted()) hasher_.QuantumSketchInto(0, users, {}, sketch);
    FoldRun(shard, q, keyword, users, sketch);
    users.clear();
  };
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
      // Each quantum refolds as if ingested; only the newest one's
      // last-quantum view survives.
      BeginQuantum(shard, q, /*expire=*/false);
      std::pair<KeywordId, UserId> prev;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::pair<KeywordId, UserId> pair{in.U32(), in.U32()};
        // Canonical form: strictly ascending (so pairs are distinct) and
        // shard-local keywords.
        if (ShardOf(pair.first) != s || (i > 0 && prev >= pair)) {
          in.Fail();
          break;
        }
        if (i > 0 && pair.first != prev.first) fold(shard, q, prev.first);
        users.push_back(pair.second);
        prev = pair;
      }
      if (!in.ok()) break;
      if (count > 0) fold(shard, q, prev.first);
    }
    if (!in.ok()) break;
  }
  if (!in.ok()) {
    Clear();
    return false;
  }
  depth_ = depth0;
  MergeQuantumKeywords();
  return true;
}

void UserIdSets::SaveSketches(BinaryWriter& out) const {
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  out.U32(static_cast<std::uint32_t>(depth_));
  for (const Shard& shard : shards_) {
    for (std::size_t q = 0; q < depth_; ++q) {
      const QuantumRuns& quantum = shard.ring[RingPos(q)];
      out.U64(quantum.runs.size());
      for (const Run& run : quantum.runs) {
        out.U32(run.keyword);
        out.U32(run.sketch_size);
        for (const SketchEntry& entry : quantum.Sketch(run)) {
          out.U64(entry.key);
          out.F64(entry.score);
        }
      }
    }
  }
}

bool UserIdSets::RestoreSketches(BinaryReader& in) {
  const std::size_t p = hasher_.p();
  bool valid = in.U32() == kIdSetShards && in.U64() == window_length_ &&
               in.U32() == depth_;
  WeightedSketch sketch;
  for (std::size_t s = 0; valid && s < kIdSetShards; ++s) {
    for (std::size_t q = 0; valid && q < depth_; ++q) {
      QuantumRuns& quantum = shards_[s].ring[RingPos(q)];
      // One sketch per history run at the same position, keyword for
      // keyword: a ring from another stream does not restore.
      if (in.U64() != quantum.runs.size()) {
        valid = false;
        break;
      }
      quantum.pool.clear();
      for (Run& run : quantum.runs) {
        const KeywordId keyword = in.U32();
        const std::uint32_t size = in.U32();
        // Canonical form: the sketch of the run's distinct users —
        // min(p, users) entries in strict sketch order with distinct keys
        // and finite non-negative scores.
        if (keyword != run.keyword ||
            size != std::min<std::size_t>(p, run.user_count) ||
            !in.CheckLength(size, 8 + 8)) {
          valid = false;
          break;
        }
        sketch.clear();
        for (std::uint32_t k = 0; valid && k < size; ++k) {
          SketchEntry entry;
          entry.key = in.U64();
          entry.score = in.F64();
          valid = std::isfinite(entry.score) && entry.score >= 0.0 &&
                  (sketch.empty() || SketchOrderLess(sketch.back(), entry)) &&
                  std::none_of(sketch.begin(), sketch.end(),
                               [&](const SketchEntry& prior) {
                                 return prior.key == entry.key;
                               });
          sketch.push_back(entry);
        }
        if (!valid || !in.ok()) {
          valid = false;
          break;
        }
        run.sketch_begin = static_cast<std::uint32_t>(quantum.pool.size());
        run.sketch_size = size;
        quantum.pool.insert(quantum.pool.end(), sketch.begin(), sketch.end());
      }
    }
  }
  if (!valid || !in.ok()) {
    Clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg

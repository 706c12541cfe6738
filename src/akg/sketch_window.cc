#include "akg/sketch_window.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scprt::akg {

SketchWindow::SketchWindow(std::size_t window_length, std::size_t p,
                           std::uint64_t seed, bool weighted)
    : window_length_(window_length),
      hasher_(p, seed, weighted),
      shards_(kShards),
      owned_(kShards) {
  SCPRT_CHECK(window_length >= 1);
  Reset(0);
}

void SketchWindow::Slot::Append(KeywordId keyword,
                                std::span<const SketchEntry> sketch) {
  entries.push_back(Entry{keyword, Ref{},
                          static_cast<std::uint32_t>(pool.size()),
                          static_cast<std::uint32_t>(sketch.size())});
  pool.insert(pool.end(), sketch.begin(), sketch.end());
}

void SketchWindow::Reset(std::size_t depth) {
  for (Shard& shard : shards_) {
    shard.ring.assign(window_length_, Slot{});
    shard.slots.Clear();
    shard.chains.clear();
  }
  head_ = 0;
  depth_ = depth;
}

void SketchWindow::LinkSlot(Shard& shard, std::uint32_t pos) {
  std::vector<Entry>& entries = shard.ring[pos].entries;
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const Ref ref{pos, i};
    bool opened;
    const std::uint32_t slot = shard.slots.Acquire(entries[i].keyword, &opened);
    if (slot >= shard.chains.size()) shard.chains.resize(slot + 1);
    Chain& chain = shard.chains[slot];
    if (opened) {
      chain.head = ref;
    } else {
      shard.ring[chain.tail.pos].entries[chain.tail.index].next = ref;
    }
    chain.tail = ref;
  }
}

void SketchWindow::ExpireSlot(Shard& shard, std::uint32_t pos) {
  for (const Entry& entry : shard.ring[pos].entries) {
    const std::uint32_t slot = shard.slots.Find(entry.keyword);
    SCPRT_DCHECK(slot != KeywordSlots::kNone);
    SCPRT_DCHECK(shard.chains[slot].head.pos == pos);
    if (entry.next.pos == kNoPos) {
      shard.slots.Release(entry.keyword);
    } else {
      shard.chains[slot].head = entry.next;
    }
  }
}

void SketchWindow::Ingest(const QuantumAggregate& aggregate,
                          const ParallelForFn& parallel_for) {
  // One routing pass up front, mirroring UserIdSets::IngestAggregate; the
  // aggregate is keyword-ascending, so each shard's owned indices — and
  // with them its slot — stay keyword-ascending too.
  for (auto& owned : owned_) owned.clear();
  for (std::uint32_t i = 0; i < aggregate.keywords.size(); ++i) {
    owned_[ShardOf(aggregate.keywords[i].keyword)].push_back(i);
  }
  // A full window hands its oldest position, expired first, to the new
  // quantum; the buffers there are reused.
  const bool full = depth_ == window_length_;
  const auto pos = static_cast<std::uint32_t>(RingPos(full ? 0 : depth_));
  const auto sketch_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    if (full) ExpireSlot(shard, pos);
    Slot& slot = shard.ring[pos];
    slot.Clear();
    // Exact reservations: a reused position grows only to its largest
    // quantum, without doubling slack.
    std::size_t pooled = 0;
    for (std::uint32_t i : owned_[s]) {
      pooled += std::min(hasher_.p(), aggregate.keywords[i].users.size());
    }
    slot.entries.reserve(owned_[s].size());
    slot.pool.reserve(pooled);
    WeightedSketch sketch;
    for (std::uint32_t i : owned_[s]) {
      const QuantumAggregate::Entry& entry = aggregate.keywords[i];
      hasher_.QuantumSketchInto(aggregate.index, entry.users, entry.counts,
                                sketch);
      slot.Append(entry.keyword, sketch);
    }
    LinkSlot(shard, pos);
  };
  if (parallel_for) {
    parallel_for(kShards, sketch_shard);
  } else {
    SerialFor(kShards, sketch_shard);
  }
  if (full) {
    head_ = RingPos(1);
  } else {
    ++depth_;
  }
}

WeightedSketch SketchWindow::WindowSketch(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  const std::uint32_t slot = shard.slots.Find(keyword);
  if (slot == KeywordSlots::kNone) return {};
  Ref ref = shard.chains[slot].head;
  const Slot* ring_slot = &shard.ring[ref.pos];
  const Entry* entry = &ring_slot->entries[ref.index];
  const std::span<const SketchEntry> oldest = ring_slot->Sketch(*entry);
  WeightedSketch acc(oldest.begin(), oldest.end());
  // Per-thread merge buffer: refreshes run through the parallel hook.
  thread_local WeightedSketch scratch;
  while (entry->next.pos != kNoPos) {
    ref = entry->next;
    ring_slot = &shard.ring[ref.pos];
    entry = &ring_slot->entries[ref.index];
    WeightedMinHasher::FoldInto(acc, ring_slot->Sketch(*entry), hasher_.p(),
                                scratch);
  }
  return acc;
}

void SketchWindow::Clear() { Reset(0); }

void SketchWindow::RebuildFromHistory(const UserIdSets& sets) {
  SCPRT_CHECK(!hasher_.weighted());
  Reset(sets.HistoryDepth());
  // Visits run shard by shard, oldest quantum first — link order.
  sets.VisitHistory([&](std::size_t s, std::size_t q,
                        const std::vector<std::pair<KeywordId, UserId>>&
                            pairs) {
    // Sort a copy so keyword runs are ascending whatever the ingested
    // aggregates looked like.
    std::vector<std::pair<KeywordId, UserId>> sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    Slot& slot = shards_[s].ring[q];
    std::vector<UserId> users;
    for (std::size_t i = 0; i < sorted.size();) {
      const KeywordId keyword = sorted[i].first;
      users.clear();
      while (i < sorted.size() && sorted[i].first == keyword) {
        users.push_back(sorted[i].second);
        ++i;
      }
      // Quantum index 0 is fine: unweighted scores are key-only.
      slot.Append(keyword, hasher_.QuantumSketch(0, users, {}));
    }
    LinkSlot(shards_[s], static_cast<std::uint32_t>(q));
  });
}

void SketchWindow::Save(BinaryWriter& out) const {
  out.U32(static_cast<std::uint32_t>(kShards));
  out.U64(window_length_);
  out.U32(static_cast<std::uint32_t>(depth()));
  for (const Shard& shard : shards_) {
    for (std::size_t q = 0; q < depth_; ++q) {
      const Slot& slot = shard.ring[RingPos(q)];
      out.U64(slot.entries.size());
      for (const Entry& e : slot.entries) {
        out.U32(e.keyword);
        out.U32(e.size);
        for (const SketchEntry& entry : slot.Sketch(e)) {
          out.U64(entry.key);
          out.F64(entry.score);
        }
      }
    }
  }
}

bool SketchWindow::Restore(BinaryReader& in) {
  Clear();
  const std::size_t p = hasher_.p();
  if (in.U32() != kShards || in.U64() != window_length_) {
    in.Fail();
    return false;
  }
  const std::uint32_t depth = in.U32();
  if (!in.ok() || depth > window_length_) {
    in.Fail();
    return false;
  }
  Reset(depth);
  bool valid = true;
  WeightedSketch sketch;
  for (std::size_t s = 0; valid && s < kShards; ++s) {
    Shard& shard = shards_[s];
    for (std::uint32_t q = 0; valid && q < depth; ++q) {
      const std::uint64_t entries = in.U64();
      if (!in.CheckLength(entries, 4 + 4)) {
        valid = false;
        break;
      }
      Slot& slot = shard.ring[q];
      slot.entries.reserve(entries);
      for (std::uint64_t e = 0; valid && e < entries; ++e) {
        const KeywordId keyword = in.U32();
        const std::uint32_t size = in.U32();
        // Canonical form: keywords strictly ascending and shard-local, a
        // sketch of at most p entries in strict sketch order with distinct
        // keys and finite non-negative scores.
        if (ShardOf(keyword) != s ||
            (!slot.entries.empty() && slot.entries.back().keyword >= keyword) ||
            size > p || !in.CheckLength(size, 8 + 8)) {
          valid = false;
          break;
        }
        sketch.clear();
        for (std::uint32_t k = 0; k < size; ++k) {
          SketchEntry entry;
          entry.key = in.U64();
          entry.score = in.F64();
          if (!std::isfinite(entry.score) || entry.score < 0.0 ||
              (!sketch.empty() &&
               !SketchOrderLess(sketch.back(), entry))) {
            valid = false;
            break;
          }
          for (const SketchEntry& prior : sketch) {
            if (prior.key == entry.key) {
              valid = false;
              break;
            }
          }
          if (!valid) break;
          sketch.push_back(entry);
        }
        if (!valid || !in.ok()) {
          valid = false;
          break;
        }
        slot.Append(keyword, sketch);
      }
      if (!valid) break;
      LinkSlot(shard, q);
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

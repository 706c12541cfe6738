// Flat containers for the AKG window state.
//
// U32Index is an open-addressing u32 -> u32 table (power-of-two capacity,
// linear probing, backward-shift deletion, so no tombstones ever build up)
// — the layout of the flat hash maps dnbaker's bmh.h builds on. It holds a
// keyword's window users (user -> multiplicity, an absent user reading 0)
// and, inside KeywordSlots, keyword -> slot. KeywordSlots hands out dense
// slot numbers for the keywords one structure currently holds and recycles
// them when a keyword leaves, so arrays indexed by slot scale with the live
// keyword count and never with the magnitude of a keyword id.
//
// Iteration order is a function of the operation history only. Nothing
// observable depends on it: every encoding and every report sorts first.

#ifndef SCPRT_AKG_FLAT_MAP_H_
#define SCPRT_AKG_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace scprt::akg {

/// Open-addressing map from any u32 key to a NONZERO u32 value; a zero
/// value marks an empty bucket. The load stays in (1/8, 1/2].
class U32Index {
 public:
  std::size_t size() const { return size_; }

  /// The value stored for `key`, or 0 when absent.
  std::uint32_t Get(std::uint32_t key) const {
    if (size_ == 0) return 0;
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      const Bucket& b = buckets_[i];
      if (b.value == 0) return 0;
      if (b.key == key) return b.value;
    }
  }

  /// Stores a nonzero `value` for an absent `key`.
  void Insert(std::uint32_t key, std::uint32_t value) {
    SCPRT_DCHECK(value != 0);
    if ((size_ + 1) * 2 > buckets_.size()) {
      Rehash(buckets_.empty() ? kMinCapacity : buckets_.size() * 2);
    }
    std::size_t i = Home(key);
    while (buckets_[i].value != 0) i = (i + 1) & mask_;
    buckets_[i] = Bucket{key, value};
    ++size_;
  }

  /// Erases a present `key`.
  void Erase(std::uint32_t key) { EraseAt(Find(key)); }

  /// Adds one to `key`'s value, inserting it as 1 when absent.
  void Increment(std::uint32_t key) {
    if (size_ != 0) {
      for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
        Bucket& b = buckets_[i];
        if (b.value == 0) break;
        if (b.key == key) {
          ++b.value;
          return;
        }
      }
    }
    Insert(key, 1);
  }

  /// Subtracts one from a present `key`'s value, erasing the key at 0.
  void Decrement(std::uint32_t key) {
    const std::size_t i = Find(key);
    if (--buckets_[i].value == 0) EraseAt(i);
  }

  /// Number of this index's keys also present in `other`: one lookup per
  /// key here, so pass the smaller index as this.
  std::size_t CountShared(const U32Index& other) const {
    std::size_t shared = 0;
    ForEach([&](std::uint32_t key, std::uint32_t) {
      shared += other.Get(key) != 0;
    });
    return shared;
  }

  /// Calls visit(key, value) for every entry, in bucket order. The load
  /// never falls below 1/8, so the walk is O(size).
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    // Occupied buckets are gathered a block at a time without a branch, so
    // a sparse table does not cost a mispredicted branch per bucket.
    constexpr std::size_t kBlock = 64;
    Bucket block[kBlock];
    for (std::size_t base = 0; base < buckets_.size(); base += kBlock) {
      const std::size_t end = std::min(buckets_.size(), base + kBlock);
      std::size_t n = 0;
      for (std::size_t i = base; i < end; ++i) {
        block[n] = buckets_[i];
        n += buckets_[i].value != 0;
      }
      for (std::size_t j = 0; j < n; ++j) visit(block[j].key, block[j].value);
    }
  }

 private:
  struct Bucket {
    std::uint32_t key = 0;
    std::uint32_t value = 0;
  };

  static constexpr std::size_t kMinCapacity = 4;

  // Fibonacci hashing: the top bits of key * 2^64/phi. Spreads the dense,
  // sequential ids interning produces across the whole table.
  std::size_t Home(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // Empties bucket `hole`, a member's.
  void EraseAt(std::size_t hole) {
    // Backward shift: pull later members of the probe run into the hole
    // whenever the hole lies between their home bucket and them.
    for (std::size_t j = (hole + 1) & mask_; buckets_[j].value != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = Home(buckets_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].value = 0;
    --size_;
    // Shrink once the load falls below 1/8, landing below 1/2, so an index
    // that held a burst does not keep its peak footprint.
    if (buckets_.size() > kMinCapacity && size_ * 8 < buckets_.size()) {
      Rehash(buckets_.size() / 4 < kMinCapacity ? kMinCapacity
                                                : buckets_.size() / 4);
    }
  }

  // Bucket of a present key.
  std::size_t Find(std::uint32_t key) const {
    std::size_t i = Home(key);
    while (buckets_[i].key != key || buckets_[i].value == 0) {
      SCPRT_DCHECK(buckets_[i].value != 0);
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Bucket> old;
    old.swap(buckets_);
    buckets_.assign(capacity, Bucket{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Bucket& b : old) {
      if (b.value == 0) continue;
      std::size_t i = Home(b.key);
      while (buckets_[i].value != 0) i = (i + 1) & mask_;
      buckets_[i] = b;
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// Dense slot numbers for the keywords a structure currently holds. A
/// released slot is handed out again before a new one is opened, so slot
/// numbers never exceed the peak number of keywords held at once.
class KeywordSlots {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// The keyword's slot, or kNone.
  std::uint32_t Find(KeywordId keyword) const {
    return index_.Get(keyword) - 1;  // absent (0) wraps to kNone
  }

  /// The keyword's slot, opening one when absent (`*opened` says which).
  std::uint32_t Acquire(KeywordId keyword, bool* opened) {
    const std::uint32_t found = Find(keyword);
    *opened = found == kNone;
    if (!*opened) return found;
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = bound_++;
    }
    index_.Insert(keyword, slot + 1);
    return slot;
  }

  /// Returns a held keyword's slot to the free list.
  void Release(KeywordId keyword) {
    const std::uint32_t slot = Find(keyword);
    SCPRT_DCHECK(slot != kNone);
    index_.Erase(keyword);
    free_.push_back(slot);
  }

  /// Keywords currently held.
  std::size_t size() const { return index_.size(); }

  void Clear() { *this = KeywordSlots{}; }

 private:
  U32Index index_;  // keyword -> slot + 1
  std::vector<std::uint32_t> free_;
  std::uint32_t bound_ = 0;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_FLAT_MAP_H_

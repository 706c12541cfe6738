#include "akg/quantum_aggregate.h"

#include <array>

namespace scprt::akg {
namespace {

// LSD radix sort by bytes, skipping every byte position that holds the same
// value in all keys (a quantum's ids span a few of the eight). Its passes
// are linear and branch-free, so on a quantum's ~10^3 keys it beats a
// comparison sort, which mispredicts on about half its comparisons.
void SortKeys(std::vector<std::uint64_t>& keys,
              std::vector<std::uint64_t>& scratch) {
  if (keys.empty()) return;
  std::uint64_t varying = 0;
  for (std::uint64_t key : keys) varying |= key ^ keys.front();
  scratch.resize(keys.size());
  for (int shift = 0; shift < 64; shift += 8) {
    const auto digit = [shift](std::uint64_t key) {
      return (key >> shift) & 0xFF;
    };
    if (digit(varying) == 0) continue;
    std::array<std::uint32_t, 257> start{};
    for (std::uint64_t key : keys) ++start[digit(key) + 1];
    for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    for (std::uint64_t key : keys) scratch[start[digit(key)]++] = key;
    keys.swap(scratch);
  }
}

}  // namespace

void AggregateQuantum(const stream::Quantum& quantum, QuantumAggregate& out) {
  // Per-thread key buffers, reused across quanta.
  thread_local std::vector<std::uint64_t> keys;
  thread_local std::vector<std::uint64_t> scratch;
  keys.clear();
  for (const stream::Message& m : quantum.messages) {
    for (KeywordId k : m.keywords) {
      keys.push_back(std::uint64_t{k} << 32 | m.user);
    }
  }
  SortKeys(keys, scratch);

  out.index = quantum.index;
  out.keywords.clear();
  out.offsets.clear();
  out.users.clear();
  out.counts.clear();
  // Upper bounds (one keyword and one user per key), so a fresh aggregate
  // allocates each array once.
  out.keywords.reserve(keys.size());
  out.offsets.reserve(keys.size() + 1);
  out.users.reserve(keys.size());
  out.counts.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    const auto keyword = static_cast<KeywordId>(keys[i] >> 32);
    if (out.keywords.empty() || out.keywords.back() != keyword) {
      out.keywords.push_back(keyword);
      out.offsets.push_back(static_cast<std::uint32_t>(out.users.size()));
    }
    out.users.push_back(static_cast<UserId>(keys[i]));
    out.counts.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
  out.offsets.push_back(static_cast<std::uint32_t>(out.users.size()));
}

QuantumAggregate AggregateQuantum(const stream::Quantum& quantum) {
  QuantumAggregate out;
  AggregateQuantum(quantum, out);
  return out;
}

}  // namespace scprt::akg

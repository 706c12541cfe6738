// Tests for akg/quantum_aggregate.h: the flat builder against a map-based
// reference over random quanta, its edge cases (repeat mentions, an empty
// quantum, ids at the top of the u32 range, one aggregate reused across
// quanta of very different sizes), and its steady-state allocation count.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "akg/quantum_aggregate.h"
#include "common/random.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace {

// Heap allocations made on this thread while counting_allocations is set;
// the replacement operator new below counts them.
thread_local bool counting_allocations = false;
thread_local std::size_t allocation_count = 0;

void* CountedMalloc(std::size_t size) {
  if (counting_allocations) ++allocation_count;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scprt::akg {
namespace {

// (keyword, user, count) triples in layout order.
using Triples = std::vector<std::tuple<KeywordId, UserId, std::uint32_t>>;

// The textbook reduction: keyword -> user -> messages, in map order.
Triples ReferenceOf(const stream::Quantum& quantum) {
  std::map<KeywordId, std::map<UserId, std::uint32_t>> users_of;
  for (const stream::Message& m : quantum.messages) {
    for (KeywordId k : m.keywords) ++users_of[k][m.user];
  }
  Triples triples;
  for (const auto& [keyword, users] : users_of) {
    for (const auto& [user, count] : users) {
      triples.emplace_back(keyword, user, count);
    }
  }
  return triples;
}

// The aggregate's content, after checking the CSR invariants.
Triples TriplesOf(const QuantumAggregate& aggregate) {
  EXPECT_EQ(aggregate.offsets.size(), aggregate.keywords.size() + 1);
  EXPECT_EQ(aggregate.offsets.front(), 0u);
  EXPECT_EQ(aggregate.offsets.back(), aggregate.users.size());
  EXPECT_EQ(aggregate.counts.size(), aggregate.users.size());
  Triples triples;
  for (std::size_t i = 0; i < aggregate.size(); ++i) {
    // Every keyword holds at least one user.
    EXPECT_LT(aggregate.offsets[i], aggregate.offsets[i + 1]);
    const auto users = aggregate.UsersOf(i);
    const auto counts = aggregate.CountsOf(i);
    for (std::size_t j = 0; j < users.size(); ++j) {
      triples.emplace_back(aggregate.keywords[i], users[j], counts[j]);
    }
  }
  return triples;
}

stream::Message Mention(UserId user, std::vector<KeywordId> keywords) {
  stream::Message m;
  m.user = user;
  m.keywords = std::move(keywords);
  return m;
}

// A random quantum of `messages` messages: users from a small pool (so the
// same user mentions a keyword in several messages) plus ids at the top of
// the range; each message carries distinct keywords from a small pool plus
// sparse ids up to 0xFFFFFFFE.
stream::Quantum RandomQuantum(Rng& rng, QuantumIndex index,
                              std::size_t messages) {
  static constexpr KeywordId kSparse[] = {1u << 20, 0x7FFFFFFFu, 0xFFFFFFFEu};
  stream::Quantum quantum;
  quantum.index = index;
  for (std::size_t i = 0; i < messages; ++i) {
    const UserId user =
        rng.Bernoulli(0.1)
            ? 0xFFFFFFFFu - static_cast<UserId>(rng.UniformInt(2))
            : static_cast<UserId>(rng.UniformInt(12));
    std::vector<KeywordId> keywords;
    const std::size_t n = 1 + rng.UniformInt(6);
    while (keywords.size() < n) {
      const KeywordId k = rng.Bernoulli(0.15)
                              ? kSparse[rng.UniformInt(3)]
                              : static_cast<KeywordId>(rng.UniformInt(30));
      if (std::find(keywords.begin(), keywords.end(), k) == keywords.end()) {
        keywords.push_back(k);
      }
    }
    quantum.messages.push_back(Mention(user, std::move(keywords)));
  }
  return quantum;
}

TEST(QuantumAggregateTest, MatchesMapReferenceOnRandomQuanta) {
  Rng rng(31);
  QuantumAggregate reused;
  bool repeated = false;
  for (QuantumIndex q = 0; q < 300; ++q) {
    // Sizes swing between empty, small and large quanta.
    const std::size_t messages =
        q % 3 == 0 ? rng.UniformInt(4) : rng.UniformInt(400);
    const stream::Quantum quantum = RandomQuantum(rng, q, messages);
    AggregateQuantum(quantum, reused);
    const Triples want = ReferenceOf(quantum);
    ASSERT_EQ(TriplesOf(reused), want) << "quantum " << q;
    EXPECT_EQ(reused.index, q);
    // A fresh build and a reused one are the same value.
    EXPECT_EQ(AggregateQuantum(quantum), reused) << "quantum " << q;
    for (const auto& triple : want) repeated |= std::get<2>(triple) > 1;
  }
  EXPECT_TRUE(repeated) << "no user mentioned a keyword twice";
}

TEST(QuantumAggregateTest, RepeatMentionsBecomeCounts) {
  stream::Quantum quantum;
  quantum.index = 4;
  quantum.messages = {Mention(7, {3, 1}), Mention(2, {3}), Mention(7, {3}),
                      Mention(7, {1, 3})};
  const QuantumAggregate aggregate = AggregateQuantum(quantum);
  EXPECT_EQ(aggregate.index, 4);
  EXPECT_EQ(aggregate.keywords, (std::vector<KeywordId>{1, 3}));
  EXPECT_EQ(aggregate.offsets, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(aggregate.users, (std::vector<UserId>{7, 2, 7}));
  EXPECT_EQ(aggregate.counts, (std::vector<std::uint32_t>{2, 1, 3}));
}

TEST(QuantumAggregateTest, EmptyQuantum) {
  stream::Quantum empty;
  empty.index = 9;
  const QuantumAggregate fresh = AggregateQuantum(empty);
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_EQ(fresh.offsets, (std::vector<std::uint32_t>{0}));
  EXPECT_TRUE(fresh.users.empty());
  EXPECT_TRUE(fresh.counts.empty());
  EXPECT_EQ(fresh.index, 9);
  // A message without keywords contributes nothing either.
  empty.messages.push_back(Mention(5, {}));
  Rng rng(1);
  QuantumAggregate reused = AggregateQuantum(RandomQuantum(rng, 0, 50));
  ASSERT_GT(reused.size(), 0u);
  AggregateQuantum(empty, reused);
  EXPECT_EQ(reused, fresh);
}

TEST(QuantumAggregateTest, PacksIdsAtTheTopOfTheRange) {
  constexpr KeywordId kTopKeyword = 0xFFFFFFFEu;
  constexpr UserId kTopUser = 0xFFFFFFFFu;
  stream::Quantum quantum;
  quantum.messages = {Mention(kTopUser, {kTopKeyword, 0}),
                      Mention(0, {kTopKeyword}),
                      Mention(kTopUser, {kTopKeyword})};
  const QuantumAggregate aggregate = AggregateQuantum(quantum);
  EXPECT_EQ(aggregate.keywords, (std::vector<KeywordId>{0, kTopKeyword}));
  EXPECT_EQ(aggregate.offsets, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(aggregate.users, (std::vector<UserId>{kTopUser, 0, kTopUser}));
  EXPECT_EQ(aggregate.counts, (std::vector<std::uint32_t>{1, 1, 2}));
  EXPECT_EQ(TriplesOf(aggregate), ReferenceOf(quantum));
}

TEST(QuantumAggregateTest, LargeThenSmallLeavesNoStaleEntries) {
  Rng rng(8);
  QuantumAggregate reused;
  AggregateQuantum(RandomQuantum(rng, 0, 500), reused);
  ASSERT_GT(reused.size(), 20u);
  stream::Quantum small;
  small.index = 1;
  small.messages = {Mention(4, {6}), Mention(5, {6})};
  AggregateQuantum(small, reused);
  EXPECT_EQ(reused.keywords, (std::vector<KeywordId>{6}));
  EXPECT_EQ(reused.offsets, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(reused.users, (std::vector<UserId>{4, 5}));
  EXPECT_EQ(reused.counts, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(reused, AggregateQuantum(small));
}

// Once a reused aggregate (and this thread's key buffer) has grown to the
// largest quantum of a stream, building any of its quanta allocates
// nothing.
TEST(QuantumAggregateTest, SteadyStateBuildAllocatesNothing) {
  stream::SyntheticConfig config = stream::TimeWindowPreset(42);
  config.num_messages = 32'000;
  const std::vector<stream::Quantum> quanta = stream::SplitIntoQuanta(
      stream::GenerateSyntheticTrace(config).messages, 160,
      /*keep_partial=*/false);
  ASSERT_EQ(quanta.size(), 200u);
  QuantumAggregate aggregate;
  for (const stream::Quantum& quantum : quanta) {
    AggregateQuantum(quantum, aggregate);
  }
  allocation_count = 0;
  counting_allocations = true;
  for (const stream::Quantum& quantum : quanta) {
    AggregateQuantum(quantum, aggregate);
  }
  counting_allocations = false;
  EXPECT_EQ(allocation_count, 0u);
  EXPECT_EQ(aggregate, AggregateQuantum(quanta.back()));
}

}  // namespace
}  // namespace scprt::akg

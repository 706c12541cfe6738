// Tests for akg/: id sets, node-state automaton, Min-Hash, AKG builder.

#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "akg/akg_builder.h"
#include "akg/correlation.h"
#include "akg/flat_map.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
#include "akg/quantum_aggregate.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/random.h"
#include "engine/shard_pool.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "tree_reduce.h"

namespace scprt::akg {
namespace {

using graph::Edge;

// --- Flat containers ---

// Random increments and decrements against std::map, through growth,
// rehashes and shrinks back down; keys span the whole u32 range so probe
// runs wrap around the table end.
TEST(U32IndexTest, CountsMatchStdMapUnderChurn) {
  Rng rng(5);
  U32Index map;
  std::map<std::uint32_t, std::uint32_t> reference;
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(static_cast<std::uint32_t>(rng.Next()));
  }
  keys.push_back(0);
  keys.push_back(std::numeric_limits<std::uint32_t>::max());
  for (int step = 0; step < 20000; ++step) {
    // Phases of growth and of decay move the size across every threshold.
    const bool grow = (step / 2500) % 2 == 0;
    const std::uint32_t key = keys[rng.UniformInt(keys.size())];
    if (grow ? rng.Bernoulli(0.8) : !reference.count(key)) {
      map.Increment(key);
      ++reference[key];
    } else if (reference.count(key)) {
      map.Decrement(key);
      if (--reference[key] == 0) reference.erase(key);
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
    if (step % 97 == 0) {
      std::map<std::uint32_t, std::uint32_t> seen;
      map.ForEach([&](std::uint32_t k, std::uint32_t c) { seen[k] = c; });
      ASSERT_EQ(seen, reference) << "step " << step;
      for (std::uint32_t k : keys) {
        const auto it = reference.find(k);
        ASSERT_EQ(map.Get(k), it == reference.end() ? 0u : it->second);
      }
    }
  }
}

TEST(KeywordSlotsTest, RecyclesSlotsAcrossSparseIds) {
  KeywordSlots slots;
  bool opened;
  const KeywordId far = 0xFFFF'FFFEu;
  EXPECT_EQ(slots.Acquire(far, &opened), 0u);
  EXPECT_TRUE(opened);
  EXPECT_EQ(slots.Acquire(7, &opened), 1u);
  EXPECT_EQ(slots.Acquire(far, &opened), 0u);
  EXPECT_FALSE(opened);
  slots.Release(far);
  EXPECT_EQ(slots.Find(far), KeywordSlots::kNone);
  // The freed slot is reused before a new one opens.
  EXPECT_EQ(slots.Acquire(1u << 31, &opened), 0u);
  EXPECT_EQ(slots.size(), 2u);
}

// --- UserIdSets ---

// One quantum's (keyword, user) occurrences, duplicates allowed.
using Occurrences = std::vector<std::pair<KeywordId, UserId>>;

// An unweighted window of length `w` for the id-set tests.
UserIdSets IdSets(std::size_t w) { return UserIdSets(w, 4, 7, false); }

// Ingests one quantum built through the canonical aggregation path, one
// message per occurrence.
void IngestQuantum(UserIdSets& sets, const Occurrences& occurrences) {
  stream::Quantum quantum;
  for (const auto& [keyword, user] : occurrences) {
    stream::Message m;
    m.user = user;
    m.keywords = {keyword};
    quantum.messages.push_back(std::move(m));
  }
  sets.IngestAggregate(AggregateQuantum(quantum), nullptr);
}

TEST(UserIdSetsTest, QuantumSupportCountsDistinctUsers) {
  UserIdSets sets = IdSets(3);
  IngestQuantum(sets, {{1, 100},
                       {1, 100},  // duplicate collapses
                       {1, 101},
                       {2, 100}});
  EXPECT_EQ(sets.QuantumSupport(1), 2u);
  EXPECT_EQ(sets.QuantumSupport(2), 1u);
  EXPECT_EQ(sets.QuantumSupport(3), 0u);
}

TEST(UserIdSetsTest, WindowAggregatesAcrossQuanta) {
  UserIdSets sets = IdSets(3);
  for (int q = 0; q < 3; ++q) {
    IngestQuantum(sets, {{1, static_cast<UserId>(100 + q)}});
  }
  EXPECT_EQ(sets.WindowSupport(1), 3u);
  // Fourth quantum evicts the first.
  IngestQuantum(sets, {{1, 200}});
  EXPECT_EQ(sets.WindowSupport(1), 3u);  // {101, 102, 200}
  std::unordered_set<UserId> user_set;
  sets.VisitWindowUsers(1, [&](UserId u) { user_set.insert(u); });
  EXPECT_FALSE(user_set.count(100));
  EXPECT_TRUE(user_set.count(200));
}

TEST(UserIdSetsTest, ExpiryRemovesKeywordEntirely) {
  UserIdSets sets = IdSets(2);
  IngestQuantum(sets, {{7, 1}});
  EXPECT_EQ(sets.active_keywords(), 1u);
  for (int q = 0; q < 2; ++q) IngestQuantum(sets, {{8, 2}});
  EXPECT_EQ(sets.WindowSupport(7), 0u);
  EXPECT_EQ(sets.active_keywords(), 1u);
}

TEST(UserIdSetsTest, UserInMultipleQuantaSurvivesPartialExpiry) {
  UserIdSets sets = IdSets(2);
  for (int q = 0; q < 2; ++q) IngestQuantum(sets, {{1, 42}});
  // User 42 appeared in both quanta; evicting the first keeps them.
  IngestQuantum(sets, {});
  EXPECT_EQ(sets.WindowSupport(1), 1u);
  IngestQuantum(sets, {});
  EXPECT_EQ(sets.WindowSupport(1), 0u);
}

TEST(UserIdSetsTest, ExactJaccard) {
  UserIdSets sets = IdSets(5);
  Occurrences occurrences;
  for (UserId u : {1, 2, 3, 4}) occurrences.emplace_back(10, u);
  for (UserId u : {3, 4, 5, 6}) occurrences.emplace_back(20, u);
  IngestQuantum(sets, occurrences);
  // |{3,4}| / |{1..6}| = 2/6.
  EXPECT_NEAR(sets.Jaccard(10, 20), 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 99), 0.0);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 10), 1.0);
}

// --- NodeStateAutomaton ---

std::vector<std::pair<KeywordId, std::uint32_t>> Counts(
    std::initializer_list<std::pair<KeywordId, std::uint32_t>> list) {
  return {list.begin(), list.end()};
}

const std::function<bool(KeywordId)> kNeverInCluster = [](KeywordId) {
  return false;
};

TEST(NodeStateTest, EntersOnBurst) {
  NodeStateAutomaton automaton(4, 3);
  auto update =
      automaton.ProcessQuantum(0, Counts({{1, 5}, {2, 3}}), kNeverInCluster);
  EXPECT_EQ(update.entered, std::vector<KeywordId>{1});
  EXPECT_EQ(update.bursty, std::vector<KeywordId>{1});
  EXPECT_TRUE(update.seen_in_akg.empty());
  EXPECT_TRUE(automaton.InAkg(1));
  EXPECT_FALSE(automaton.InAkg(2));
}

TEST(NodeStateTest, SeenInAkgWithoutBurst) {
  NodeStateAutomaton automaton(4, 3);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  auto update =
      automaton.ProcessQuantum(1, Counts({{1, 2}}), kNeverInCluster);
  EXPECT_TRUE(update.entered.empty());
  EXPECT_TRUE(update.bursty.empty());
  EXPECT_EQ(update.seen_in_akg, std::vector<KeywordId>{1});
  EXPECT_TRUE(automaton.InAkg(1));
}

TEST(NodeStateTest, StaleEviction) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  automaton.ProcessQuantum(1, Counts({}), kNeverInCluster);
  auto update = automaton.ProcessQuantum(2, Counts({}), kNeverInCluster);
  EXPECT_EQ(update.removed, std::vector<KeywordId>{1});
  EXPECT_FALSE(automaton.InAkg(1));
}

TEST(NodeStateTest, ClusterMembershipRetains) {
  NodeStateAutomaton automaton(4, 2);
  const std::function<bool(KeywordId)> in_cluster = [](KeywordId k) {
    return k == 1;
  };
  automaton.ProcessQuantum(0, Counts({{1, 5}}), in_cluster);
  // Keyword 1 keeps occurring below threshold: faded but in cluster.
  for (QuantumIndex q = 1; q <= 5; ++q) {
    auto update =
        automaton.ProcessQuantum(q, Counts({{1, 1}}), in_cluster);
    EXPECT_TRUE(update.removed.empty()) << "quantum " << q;
  }
  EXPECT_TRUE(automaton.InAkg(1));
}

TEST(NodeStateTest, FadedEvictionWithoutCluster) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  // Keeps occurring (never stale) but below threshold and clusterless:
  // evicted once the burst horizon passes.
  automaton.ProcessQuantum(1, Counts({{1, 1}}), kNeverInCluster);
  automaton.ProcessQuantum(2, Counts({{1, 1}}), kNeverInCluster);
  auto update = automaton.ProcessQuantum(3, Counts({{1, 1}}), kNeverInCluster);
  EXPECT_FALSE(automaton.InAkg(1));
  // Removed in one of the sweeps.
  (void)update;
}

TEST(NodeStateTest, ReentryAfterEviction) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  automaton.ProcessQuantum(1, Counts({}), kNeverInCluster);
  automaton.ProcessQuantum(2, Counts({}), kNeverInCluster);
  EXPECT_FALSE(automaton.InAkg(1));
  auto update = automaton.ProcessQuantum(3, Counts({{1, 6}}), kNeverInCluster);
  EXPECT_EQ(update.entered, std::vector<KeywordId>{1});
  EXPECT_TRUE(automaton.InAkg(1));
}

// --- MinHash ---

TEST(MinHashTest, SignatureIsBottomP) {
  MinHasher hasher(3, 42);
  std::vector<UserId> users = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto sig = hasher.Signature(users);
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sig.begin(), sig.end()));
  // Must be the three smallest among all hashed values.
  SeededHash h(42);
  std::vector<std::uint64_t> all;
  for (UserId u : users) all.push_back(h(u));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(sig[0], all[0]);
  EXPECT_EQ(sig[2], all[2]);
}

TEST(MinHashTest, SmallSetSignature) {
  MinHasher hasher(5, 42);
  EXPECT_EQ(hasher.Signature({7}).size(), 1u);
  EXPECT_TRUE(hasher.Signature({}).empty());
}

TEST(MinHashTest, RepeatedIdsCollapseToOneSlot) {
  // Regression: a duplicated id used to occupy two bottom-p slots, pushing
  // a genuinely distinct user out of the signature.
  MinHasher hasher(3, 42);
  const auto with_dups =
      hasher.Signature({5, 5, 5, 9, 9, 13, 5, 13, 21, 21});
  const auto distinct = hasher.Signature({5, 9, 13, 21});
  EXPECT_EQ(with_dups, distinct);
  ASSERT_EQ(with_dups.size(), 3u);
  EXPECT_LT(with_dups[0], with_dups[1]);
  EXPECT_LT(with_dups[1], with_dups[2]);
  // With only two distinct ids the signature has two slots, not three.
  EXPECT_EQ(hasher.Signature({8, 8, 8, 8, 8, 3}).size(), 2u);
}

TEST(MinHashTest, SmallSetEstimateIsExact) {
  // When both signatures are complete sets (|A|, |B| < p), the bottom-p of
  // the union is the whole union and the estimate is the exact Jaccard —
  // the `shared/taken` ratio must not truncate the union sample early.
  MinHasher hasher(8, 1234);
  const auto a = hasher.Signature({1, 2, 3});
  const auto b = hasher.Signature({2, 3, 4, 5});
  // |A n B| = 2, |A u B| = 5.
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(a, b, 8), 2.0 / 5.0);
  const auto lone = hasher.Signature({77});
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(lone, lone, 8), 1.0);
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(a, hasher.Signature({9}), 8),
                   0.0);
}

TEST(MinHashTest, IdenticalSetsShareAllValues) {
  MinHasher hasher(4, 7);
  std::vector<UserId> users = {10, 20, 30, 40, 50};
  const auto a = hasher.Signature(users);
  const auto b = hasher.Signature(users);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(MinHasher::SharesValue(a, b));
  EXPECT_DOUBLE_EQ(MinHasher::EstimateJaccard(a, b, 4), 1.0);
}

TEST(MinHashTest, DisjointSetsShareNothing) {
  MinHasher hasher(4, 7);
  const auto a = hasher.Signature({1, 2, 3, 4});
  const auto b = hasher.Signature({100, 200, 300, 400});
  EXPECT_FALSE(MinHasher::SharesValue(a, b));
}

TEST(MinHashTest, EstimateTracksExactJaccard) {
  // Property: averaged over many random set pairs, the bottom-p estimate is
  // close to the exact Jaccard.
  Rng rng(99);
  const std::size_t p = 8;
  double error_sum = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    MinHasher hasher(p, rng.Next());
    std::vector<UserId> a, b;
    const int shared = 10 + static_cast<int>(rng.UniformInt(30));
    const int only_a = 5 + static_cast<int>(rng.UniformInt(40));
    const int only_b = 5 + static_cast<int>(rng.UniformInt(40));
    UserId next = 0;
    for (int i = 0; i < shared; ++i) {
      a.push_back(next);
      b.push_back(next);
      ++next;
    }
    for (int i = 0; i < only_a; ++i) a.push_back(next++);
    for (int i = 0; i < only_b; ++i) b.push_back(next++);
    const double exact =
        static_cast<double>(shared) /
        static_cast<double>(shared + only_a + only_b);
    const double estimate = MinHasher::EstimateJaccard(
        hasher.Signature(a), hasher.Signature(b), p);
    error_sum += estimate - exact;
  }
  EXPECT_NEAR(error_sum / trials, 0.0, 0.03);  // approximately unbiased
}

TEST(MinHashTest, DefaultSizeFollowsPaperFormula) {
  // min(ceil(theta/2), ceil(1/gamma)) clamped to [2, 16]. Both terms round
  // UP: the paper's real-valued formula is a resolution floor, so an odd
  // theta takes the extra slot rather than dropping one.
  struct Row {
    std::uint32_t theta;
    double gamma;
    std::size_t expected;
  };
  const Row rows[] = {
      {4, 0.20, 2},     // min(2, 5)
      {16, 0.20, 5},    // min(8, 5)
      {2, 0.5, 2},      // clamp up from 1
      {100, 0.01, 16},  // clamp down
      {5, 0.20, 3},     // ceil(5/2) = 3, not floor = 2
      {3, 0.1, 2},      // ceil(3/2) = 2
      {7, 0.25, 4},     // min(ceil(7/2), 4) = 4
      {9, 0.30, 4},     // ceil(1/0.3) = 4 < ceil(9/2) = 5
  };
  for (const Row& row : rows) {
    EXPECT_EQ(DefaultMinHashSize(row.theta, row.gamma), row.expected)
        << "theta=" << row.theta << " gamma=" << row.gamma;
  }
}

// --- AkgBuilder end-to-end on handcrafted quanta ---

stream::Quantum MakeQuantum(
    QuantumIndex index,
    std::initializer_list<std::pair<UserId, std::vector<KeywordId>>> msgs) {
  stream::Quantum q;
  q.index = index;
  for (const auto& [user, keywords] : msgs) {
    stream::Message m;
    m.user = user;
    m.keywords = keywords;
    q.messages.push_back(std::move(m));
  }
  return q;
}

AkgConfig TestConfig() {
  AkgConfig config;
  config.high_state_threshold = 3;
  config.ec_threshold = 0.5;
  config.window_length = 3;
  config.ec_mode = EcMode::kExact;
  return config;
}

TEST(AkgBuilderTest, CorrelatedBurstyKeywordsGetEdge) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  // Keywords 1 and 2 used together by users 1..4.
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}},
  }));
  EXPECT_EQ(delta.nodes_added.size(), 2u);
  ASSERT_EQ(delta.edges_added.size(), 1u);
  EXPECT_EQ(delta.edges_added[0].first, Edge::Of(1, 2));
  EXPECT_DOUBLE_EQ(delta.edges_added[0].second, 1.0);
  EXPECT_DOUBLE_EQ(builder.EdgeCorrelation(Edge::Of(1, 2)), 1.0);
  EXPECT_EQ(builder.NodeWeight(1), 4u);
}

TEST(AkgBuilderTest, WeakCorrelationNoEdge) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  // Both bursty but different user sets: Jaccard 0 < 0.5.
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1}}, {2, {1}}, {3, {1}},
      {11, {2}}, {12, {2}}, {13, {2}},
  }));
  EXPECT_EQ(delta.nodes_added.size(), 2u);
  EXPECT_TRUE(delta.edges_added.empty());
}

TEST(AkgBuilderTest, NonBurstyKeywordNeverEnters) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1}}, {2, {1}},  // only 2 users < theta=3
  }));
  EXPECT_TRUE(delta.nodes_added.empty());
  EXPECT_FALSE(builder.node_state().InAkg(1));
}

TEST(AkgBuilderTest, EdgeDroppedWhenCorrelationDecays) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_TRUE(builder.akg().HasEdge(1, 2));
  // Subsequent quanta: both keywords keep occurring but used by disjoint
  // user crowds; window Jaccard decays below 0.5.
  for (QuantumIndex q = 1; q <= 2; ++q) {
    builder.ProcessQuantum(MakeQuantum(q, {
        {static_cast<UserId>(20 + q), {1}},
        {static_cast<UserId>(21 + q * 10), {1}},
        {static_cast<UserId>(22 + q * 10), {1}},
        {static_cast<UserId>(60 + q), {2}},
        {static_cast<UserId>(61 + q * 10), {2}},
        {static_cast<UserId>(62 + q * 10), {2}},
    }));
  }
  EXPECT_FALSE(builder.akg().HasEdge(1, 2));
}

TEST(AkgBuilderTest, StaleNodeEvictedWithEdges) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_EQ(builder.akg().node_count(), 2u);
  bool removed_nodes = false;
  for (QuantumIndex q = 1; q <= 4; ++q) {
    const auto delta = builder.ProcessQuantum(MakeQuantum(q, {
        {static_cast<UserId>(q), {9}},
    }));
    removed_nodes |= !delta.nodes_removed.empty();
  }
  EXPECT_TRUE(removed_nodes);
  EXPECT_EQ(builder.akg().node_count(), 0u);
  EXPECT_EQ(builder.akg().edge_count(), 0u);
}

TEST(AkgBuilderTest, MinHashScreenAgreesWithExactOnStrongPairs) {
  AkgConfig exact = TestConfig();
  AkgConfig screened = TestConfig();
  screened.ec_mode = EcMode::kMinHashScreenExactVerify;
  screened.minhash_size = 8;
  AkgBuilder builder_exact(exact, [](KeywordId) { return false; });
  AkgBuilder builder_screen(screened, [](KeywordId) { return false; });
  const auto quantum = MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}}, {5, {1, 2}},
      {6, {3}}, {7, {3}}, {8, {3}},
  });
  const auto d1 = builder_exact.ProcessQuantum(quantum);
  const auto d2 = builder_screen.ProcessQuantum(quantum);
  ASSERT_EQ(d1.edges_added.size(), 1u);
  ASSERT_EQ(d2.edges_added.size(), 1u);  // identical sets always share minhash
  EXPECT_EQ(d1.edges_added[0].first, d2.edges_added[0].first);
}

TEST(AkgBuilderTest, StatsReflectSizes) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2, 5}}, {2, {1, 2}}, {3, {1, 2}}, {4, {7}},
  }));
  const auto& stats = builder.last_stats();
  EXPECT_EQ(stats.quantum_keywords, 4u);  // {1, 2, 5, 7}
  EXPECT_EQ(stats.bursty, 2u);            // {1, 2}
  EXPECT_EQ(stats.akg_nodes, 2u);
  EXPECT_EQ(stats.akg_edges, 1u);
  EXPECT_GE(stats.ckg_nodes, 4u);
}

// A weighted snapshot carries the per-quantum sketches in their own
// section. One spliced in from another stream — here a builder that saw
// keywords {1, 2} instead of {5, 6} — is well-formed on its own, but its
// runs do not match the restored histories, so Restore must reject it.
TEST(AkgBuilderTest, RestoreRejectsSketchesFromAnotherStream) {
  AkgConfig config = TestConfig();
  config.weighted_minhash = true;
  const auto run = [&config](KeywordId a, KeywordId b, std::string* sketches) {
    AkgBuilder builder(config, [](KeywordId) { return false; });
    for (QuantumIndex q = 0; q < 3; ++q) {
      builder.ProcessQuantum(MakeQuantum(q, {
          {1, {a, b}}, {2, {a, b}}, {3, {a}}, {4, {b}},
      }));
    }
    BinaryWriter ring;
    builder.id_sets().SaveSketches(ring);
    *sketches = ring.data();
    BinaryWriter out;
    builder.Save(out);
    return out.data();
  };
  std::string donor_ring, ring;
  run(1, 2, &donor_ring);
  std::string bytes = run(5, 6, &ring);
  const std::size_t at = bytes.find(ring);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(donor_ring.size(), ring.size());
  {
    AkgBuilder intact(config, [](KeywordId) { return false; });
    BinaryReader in(bytes);
    ASSERT_TRUE(intact.Restore(in));
  }
  bytes.replace(at, ring.size(), donor_ring);
  AkgBuilder forged(config, [](KeywordId) { return false; });
  BinaryReader in(bytes);
  EXPECT_FALSE(forged.Restore(in));
  EXPECT_EQ(forged.id_sets().active_keywords(), 0u);
}

// A restore that fails late — a tw snapshot cut 30 bytes short, past the
// node-state section — leaves every layer empty, node states included, so
// the builder then runs exactly like a fresh one.
TEST(AkgBuilderTest, FailedRestoreResetsEveryLayer) {
  stream::SyntheticConfig tw = stream::TimeWindowPreset(42);
  tw.num_messages = 48'000;
  const std::vector<stream::Quantum> quanta = stream::SplitIntoQuanta(
      stream::GenerateSyntheticTrace(tw).messages, 160,
      /*keep_partial=*/false);
  ASSERT_GT(quanta.size(), 200u);
  const AkgConfig config;
  const auto no_cluster = [](KeywordId) { return false; };
  AkgBuilder source(config, no_cluster);
  for (std::size_t q = 0; q + 1 < quanta.size(); ++q) {
    source.ProcessQuantum(quanta[q]);
  }
  ASSERT_GT(source.node_state().tracked_keywords(), 0u);
  BinaryWriter out;
  source.Save(out);
  const std::string bytes = out.data();
  const std::string truncated = bytes.substr(0, bytes.size() - 30);

  AkgBuilder restored(config, no_cluster);
  for (std::size_t q = 0; q < 20; ++q) restored.ProcessQuantum(quanta[q]);
  BinaryReader in(truncated);
  EXPECT_FALSE(restored.Restore(in));
  EXPECT_EQ(restored.node_state().tracked_keywords(), 0u);
  EXPECT_EQ(restored.node_state().akg_size(), 0u);
  EXPECT_EQ(restored.id_sets().active_keywords(), 0u);

  AkgBuilder fresh(config, no_cluster);
  restored.ProcessQuantum(quanta.back());
  fresh.ProcessQuantum(quanta.back());
  BinaryWriter restored_bytes;
  restored.Save(restored_bytes);
  BinaryWriter fresh_bytes;
  fresh.Save(fresh_bytes);
  EXPECT_EQ(restored_bytes.data(), fresh_bytes.data());
}

// --- Differential check of the flat window state against a map model ---
//
// The reference model below keeps the textbook layout: per-keyword
// user -> count maps over a deque of per-quantum pair lists, stamp maps
// pruned by a full sweep every quantum, and per-quantum sketch maps reduced
// by a pairwise tree. Driven alongside the keyword window (UserIdSets:
// id sets and sketches in one structure) and NodeStateAutomaton over
// seeded random streams, every query must agree every quantum and every
// encoding must match the model's byte for byte.

constexpr std::size_t kRefShards = UserIdSets::kIdSetShards;

class RefIdSets {
 public:
  explicit RefIdSets(std::size_t w) : w_(w) {}

  void Ingest(const QuantumAggregate& aggregate) {
    support_.clear();
    keywords_.clear();
    std::vector<std::pair<KeywordId, UserId>> pairs;
    for (std::size_t i = 0; i < aggregate.size(); ++i) {
      const KeywordId keyword = aggregate.keywords[i];
      support_[keyword] = aggregate.UsersOf(i).size();
      keywords_.push_back(keyword);
      for (UserId user : aggregate.UsersOf(i)) {
        ++window_[keyword][user];
        pairs.emplace_back(keyword, user);
      }
    }
    history_.push_back(std::move(pairs));
    if (history_.size() > w_) {
      for (const auto& [keyword, user] : history_.front()) {
        auto& users = window_.at(keyword);
        if (--users.at(user) == 0) users.erase(user);
        if (users.empty()) window_.erase(keyword);
      }
      history_.pop_front();
    }
  }

  const std::vector<KeywordId>& QuantumKeywords() const { return keywords_; }

  std::size_t QuantumSupport(KeywordId k) const {
    const auto it = support_.find(k);
    return it == support_.end() ? 0 : it->second;
  }

  std::size_t WindowSupport(KeywordId k) const {
    const auto it = window_.find(k);
    return it == window_.end() ? 0 : it->second.size();
  }

  double Jaccard(KeywordId a, KeywordId b) const {
    const auto ia = window_.find(a);
    const auto ib = window_.find(b);
    if (ia == window_.end() || ib == window_.end()) return 0.0;
    std::size_t shared = 0;
    for (const auto& [user, _] : ia->second) shared += ib->second.count(user);
    const std::size_t unioned =
        ia->second.size() + ib->second.size() - shared;
    return static_cast<double>(shared) / static_cast<double>(unioned);
  }

  std::size_t active_keywords() const { return window_.size(); }

  // The id-set encoding (docs/formats.md): per shard, every retained
  // quantum's pairs sorted.
  std::string Encode() const {
    BinaryWriter out;
    out.U32(static_cast<std::uint32_t>(kRefShards));
    out.U64(w_);
    for (std::size_t s = 0; s < kRefShards; ++s) {
      out.U32(static_cast<std::uint32_t>(history_.size()));
      for (const auto& pairs : history_) {
        std::vector<std::pair<KeywordId, UserId>> owned;
        for (const auto& pair : pairs) {
          if (pair.first % kRefShards == s) owned.push_back(pair);
        }
        std::sort(owned.begin(), owned.end());
        out.U64(owned.size());
        for (const auto& [keyword, user] : owned) {
          out.U32(keyword);
          out.U32(user);
        }
      }
    }
    return out.data();
  }

 private:
  std::size_t w_;
  std::deque<std::vector<std::pair<KeywordId, UserId>>> history_;
  std::map<KeywordId, std::map<UserId, std::uint32_t>> window_;
  std::map<KeywordId, std::size_t> support_;
  std::vector<KeywordId> keywords_;
};

class RefNodeState {
 public:
  RefNodeState(std::uint32_t theta, std::size_t w) : theta_(theta), w_(w) {}

  NodeStateUpdate ProcessQuantum(
      QuantumIndex now,
      const std::vector<std::pair<KeywordId, std::uint32_t>>& keywords,
      const std::function<bool(KeywordId)>& in_cluster) {
    NodeStateUpdate update;
    for (const auto& [keyword, users] : keywords) {
      last_seen_[keyword] = now;
      if (users >= theta_) {
        last_bursty_[keyword] = now;
        update.bursty.push_back(keyword);
        if (akg_.insert(keyword).second) update.entered.push_back(keyword);
      } else if (akg_.count(keyword)) {
        update.seen_in_akg.push_back(keyword);
      }
    }
    const QuantumIndex horizon = now - static_cast<QuantumIndex>(w_);
    for (auto it = akg_.begin(); it != akg_.end();) {
      const KeywordId keyword = *it;
      const bool stale = last_seen_.at(keyword) <= horizon;
      const auto bursty = last_bursty_.find(keyword);
      const bool faded =
          !stale &&
          !(bursty != last_bursty_.end() && bursty->second > horizon) &&
          !in_cluster(keyword);
      if (stale || faded) {
        last_bursty_.erase(keyword);
        update.removed.push_back(keyword);
        it = akg_.erase(it);
      } else {
        ++it;
      }
    }
    // The full sweep the expiry wheel replaces.
    for (auto it = last_seen_.begin(); it != last_seen_.end();) {
      if (it->second <= horizon && !akg_.count(it->first)) {
        last_bursty_.erase(it->first);
        it = last_seen_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(update.entered.begin(), update.entered.end());
    std::sort(update.bursty.begin(), update.bursty.end());
    std::sort(update.seen_in_akg.begin(), update.seen_in_akg.end());
    return update;  // `removed` is already ascending (set order)
  }

  std::size_t tracked_keywords() const { return last_seen_.size(); }
  std::size_t akg_size() const { return akg_.size(); }

  std::string Encode() const {
    BinaryWriter out;
    for (const auto* stamps : {&last_seen_, &last_bursty_}) {
      out.U64(stamps->size());
      for (const auto& [keyword, stamp] : *stamps) {
        out.U32(keyword);
        out.I64(stamp);
      }
    }
    out.U64(akg_.size());
    for (KeywordId keyword : akg_) out.U32(keyword);
    return out.data();
  }

 private:
  std::uint32_t theta_;
  std::size_t w_;
  std::map<KeywordId, QuantumIndex> last_seen_;
  std::map<KeywordId, QuantumIndex> last_bursty_;
  std::set<KeywordId> akg_;
};

class RefSketchWindow {
 public:
  RefSketchWindow(std::size_t w, const WeightedMinHasher& hasher)
      : w_(w), hasher_(hasher) {}

  void Ingest(const QuantumAggregate& aggregate) {
    std::map<KeywordId, WeightedSketch> slot;
    for (std::size_t i = 0; i < aggregate.size(); ++i) {
      slot[aggregate.keywords[i]] = hasher_.QuantumSketch(
          aggregate.index, aggregate.UsersOf(i), aggregate.CountsOf(i));
    }
    ring_.push_back(std::move(slot));
    if (ring_.size() > w_) ring_.pop_front();
  }

  // The pairwise tree the in-place fold replaces.
  WeightedSketch WindowSketch(KeywordId keyword) const {
    std::vector<WeightedSketch> parts;
    for (const auto& slot : ring_) {
      const auto it = slot.find(keyword);
      if (it != slot.end()) parts.push_back(it->second);
    }
    const std::size_t p = hasher_.p();
    return TreeReduce(
        std::move(parts),
        [p](WeightedSketch a, WeightedSketch b) {
          return WeightedMinHasher::Combine(a, b, p);
        },
        nullptr);
  }

  std::string Encode() const {
    BinaryWriter out;
    out.U32(static_cast<std::uint32_t>(kRefShards));
    out.U64(w_);
    out.U32(static_cast<std::uint32_t>(ring_.size()));
    for (std::size_t s = 0; s < kRefShards; ++s) {
      for (const auto& slot : ring_) {
        std::size_t owned = 0;
        for (const auto& [keyword, _] : slot) {
          owned += keyword % kRefShards == s;
        }
        out.U64(owned);
        for (const auto& [keyword, sketch] : slot) {
          if (keyword % kRefShards != s) continue;
          out.U32(keyword);
          out.U32(static_cast<std::uint32_t>(sketch.size()));
          for (const SketchEntry& entry : sketch) {
            out.U64(entry.key);
            out.F64(entry.score);
          }
        }
      }
    }
    return out.data();
  }

 private:
  std::size_t w_;
  WeightedMinHasher hasher_;
  std::deque<std::map<KeywordId, WeightedSketch>> ring_;
};

// Keyword universe of the random streams: a dense block plus sparse ids up
// to UINT32_MAX - 1, so slots are recycled across far-apart ids.
std::vector<KeywordId> StreamKeywords() {
  std::vector<KeywordId> keywords;
  for (KeywordId k = 0; k < 40; ++k) keywords.push_back(k);
  for (KeywordId k : {1u << 20, 0x7FFFFFFFu, 0xFFFFFF00u, 0xFFFFFFF0u,
                      0xFFFFFFFDu, 0xFFFFFFFEu}) {
    keywords.push_back(k);
  }
  return keywords;
}

// One random quantum: keywords switch on and off in keyword-specific
// epochs (so they leave the window and re-enter it), some burst, and users
// mix a small shared pool (overlaps, repeats across quanta) with ids near
// UINT32_MAX.
QuantumAggregate RandomAggregate(Rng& rng, QuantumIndex index,
                                 const std::vector<KeywordId>& keywords) {
  std::map<KeywordId, std::map<UserId, std::uint32_t>> users_of;
  for (KeywordId k : keywords) {
    const std::uint64_t epoch =
        static_cast<std::uint64_t>(index + 1000) / (2 + k % 7);
    const bool on = (epoch + k) % 3 != 0;
    if (!on || !rng.Bernoulli(0.6)) continue;
    const bool burst = rng.Bernoulli(0.3);
    const int users = 1 + static_cast<int>(rng.UniformInt(burst ? 9 : 3));
    for (int i = 0; i < users; ++i) {
      const UserId user =
          rng.Bernoulli(0.1)
              ? std::numeric_limits<UserId>::max() -
                    static_cast<UserId>(rng.UniformInt(3))
              : static_cast<UserId>(rng.UniformInt(40));
      users_of[k][user] += 1 + static_cast<std::uint32_t>(rng.UniformInt(2));
    }
  }
  QuantumAggregate aggregate;
  aggregate.index = index;
  for (const auto& [keyword, users] : users_of) {
    aggregate.keywords.push_back(keyword);
    for (const auto& [user, count] : users) {
      aggregate.users.push_back(user);
      aggregate.counts.push_back(count);
    }
    aggregate.offsets.push_back(
        static_cast<std::uint32_t>(aggregate.users.size()));
  }
  return aggregate;
}

// A pure, quantum-dependent cluster-membership predicate for the
// automaton's retention rule.
bool PseudoInCluster(KeywordId keyword, QuantumIndex now) {
  return (SplitMix64(keyword ^ (static_cast<std::uint64_t>(now) << 32)) &
          3) == 0;
}

struct DiffParams {
  std::size_t w;
  std::uint64_t seed;
  QuantumIndex first_quantum;
  bool gaps;
  bool weighted;
  int quanta;
};

void PrintTo(const DiffParams& p, std::ostream* os) {
  *os << "w=" << p.w << " seed=" << p.seed << " first=" << p.first_quantum
      << " gaps=" << p.gaps << " weighted=" << p.weighted;
}

class AkgWindowDiffTest : public ::testing::TestWithParam<DiffParams> {};

// The flat structures under test, one full set.
struct FlatState {
  FlatState(const DiffParams& params, std::uint32_t theta)
      : window(params.w, 3, 0x5ca1ab1eULL, params.weighted),
        nodes(theta, params.w) {}
  UserIdSets window;
  NodeStateAutomaton nodes;

  std::string SaveAll() const {
    BinaryWriter out;
    window.Save(out);
    nodes.Save(out);
    window.SaveSketches(out);
    return out.data();
  }

  bool RestoreAll(const std::string& bytes) {
    BinaryReader in(bytes);
    return window.Restore(in) && nodes.Restore(in) &&
           window.RestoreSketches(in) && in.ok() && in.remaining() == 0;
  }

  NodeStateUpdate Ingest(const QuantumAggregate& aggregate) {
    window.IngestAggregate(aggregate, nullptr);
    std::vector<std::pair<KeywordId, std::uint32_t>> counts;
    for (KeywordId k : window.QuantumKeywords()) {
      counts.emplace_back(
          k, static_cast<std::uint32_t>(window.QuantumSupport(k)));
    }
    const QuantumIndex now = aggregate.index;
    return nodes.ProcessQuantum(
        now, counts, [now](KeywordId k) { return PseudoInCluster(k, now); });
  }
};

void ExpectSameUpdate(const NodeStateUpdate& got, const NodeStateUpdate& want,
                      QuantumIndex q) {
  EXPECT_EQ(got.entered, want.entered) << "quantum " << q;
  EXPECT_EQ(got.bursty, want.bursty) << "quantum " << q;
  EXPECT_EQ(got.seen_in_akg, want.seen_in_akg) << "quantum " << q;
  EXPECT_EQ(got.removed, want.removed) << "quantum " << q;
}

TEST_P(AkgWindowDiffTest, FlatStateMatchesReferenceModel) {
  const DiffParams params = GetParam();
  constexpr std::uint32_t kTheta = 4;
  const std::vector<KeywordId> keywords = StreamKeywords();
  Rng rng(params.seed);

  FlatState flat(params, kTheta);
  std::unique_ptr<FlatState> restored;
  RefIdSets ref_ids(params.w);
  RefNodeState ref_nodes(kTheta, params.w);
  RefSketchWindow ref_sketches(params.w, flat.window.hasher());

  QuantumIndex now = params.first_quantum;
  for (int step = 0; step < params.quanta; ++step) {
    if (step > 0) {
      now += params.gaps && rng.Bernoulli(0.15)
                 ? 2 + static_cast<QuantumIndex>(rng.UniformInt(2 * params.w))
                 : 1;
    }
    const QuantumAggregate aggregate = RandomAggregate(rng, now, keywords);
    const NodeStateUpdate update = flat.Ingest(aggregate);
    ref_ids.Ingest(aggregate);
    ref_sketches.Ingest(aggregate);
    std::vector<std::pair<KeywordId, std::uint32_t>> counts;
    for (std::size_t i = 0; i < aggregate.size(); ++i) {
      const std::size_t users = aggregate.UsersOf(i).size();
      counts.emplace_back(aggregate.keywords[i],
                          static_cast<std::uint32_t>(users));
    }
    const NodeStateUpdate want = ref_nodes.ProcessQuantum(
        now, counts, [now](KeywordId k) { return PseudoInCluster(k, now); });

    ASSERT_EQ(flat.window.QuantumKeywords(), ref_ids.QuantumKeywords())
        << "quantum " << now;
    ExpectSameUpdate(update, want, now);
    ASSERT_EQ(flat.nodes.tracked_keywords(), ref_nodes.tracked_keywords())
        << "quantum " << now;
    ASSERT_EQ(flat.nodes.akg_size(), ref_nodes.akg_size());
    ASSERT_EQ(flat.window.active_keywords(), ref_ids.active_keywords());
    for (std::size_t i = 0; i < keywords.size(); ++i) {
      const KeywordId a = keywords[i];
      ASSERT_EQ(flat.window.QuantumSupport(a), ref_ids.QuantumSupport(a));
      ASSERT_EQ(flat.window.WindowSupport(a), ref_ids.WindowSupport(a));
      std::set<UserId> users;
      flat.window.VisitWindowUsers(a, [&](UserId u) {
        EXPECT_TRUE(users.insert(u).second) << "user visited twice";
      });
      ASSERT_EQ(users.size(), ref_ids.WindowSupport(a));
      ASSERT_EQ(flat.window.WindowSketch(a), ref_sketches.WindowSketch(a))
          << "keyword " << a << " quantum " << now;
      for (std::size_t j = i; j < keywords.size(); j += 3) {
        ASSERT_EQ(flat.window.Jaccard(a, keywords[j]),
                  ref_ids.Jaccard(a, keywords[j]))
            << a << " vs " << keywords[j] << " quantum " << now;
      }
    }
    {
      BinaryWriter ids, nodes, sketches;
      flat.window.Save(ids);
      flat.nodes.Save(nodes);
      flat.window.SaveSketches(sketches);
      ASSERT_EQ(ids.data(), ref_ids.Encode()) << "quantum " << now;
      ASSERT_EQ(nodes.data(), ref_nodes.Encode()) << "quantum " << now;
      ASSERT_EQ(sketches.data(), ref_sketches.Encode()) << "quantum " << now;
    }

    // Save -> Restore halfway; the restored copy then runs alongside and
    // must stay byte-identical.
    if (restored != nullptr) {
      ExpectSameUpdate(restored->Ingest(aggregate), update, now);
      ASSERT_EQ(restored->SaveAll(), flat.SaveAll()) << "quantum " << now;
    }
    if (step == params.quanta / 2) {
      restored = std::make_unique<FlatState>(params, kTheta);
      ASSERT_TRUE(restored->RestoreAll(flat.SaveAll()));
      ASSERT_EQ(restored->SaveAll(), flat.SaveAll());
      if (!params.weighted) {
        // Unweighted sketches also rebuild from the id-set histories alone.
        BinaryWriter histories;
        flat.window.Save(histories);
        UserIdSets rebuilt(params.w, 3, 0x5ca1ab1eULL, false);
        BinaryReader in(histories.data());
        ASSERT_TRUE(rebuilt.Restore(in));
        BinaryWriter a, b;
        rebuilt.SaveSketches(a);
        flat.window.SaveSketches(b);
        ASSERT_EQ(a.data(), b.data());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AkgWindowDiffTest,
    ::testing::Values(DiffParams{1, 11, 0, true, false, 160},
                      DiffParams{30, 12, 0, true, false, 160},
                      DiffParams{30, 13, 5, false, true, 160},
                      DiffParams{4, 14, -9, true, true, 200},
                      DiffParams{7, 15, 1000, true, false, 200},
                      DiffParams{1, 16, 3, false, true, 160},
                      DiffParams{4, 17, 0, false, false, 200},
                      DiffParams{7, 18, -2, true, true, 200}));

// Forged or out-of-order stamps: a restored automaton whose last-seen
// stamps lie ahead of the quanta that follow still prunes exactly like the
// full sweep once the horizon passes them.
TEST(NodeStateTest, FutureStampsPruneLikeTheFullSweep) {
  NodeStateAutomaton automaton(4, 3);
  RefNodeState reference(4, 3);
  const auto never = [](KeywordId) { return false; };
  automaton.ProcessQuantum(50, Counts({{1, 1}, {2, 1}}), never);
  reference.ProcessQuantum(50, Counts({{1, 1}, {2, 1}}), never);
  // Time runs backwards (a caller's choice the automaton tolerates).
  for (QuantumIndex q = 10; q < 60; ++q) {
    const auto counts = Counts({{static_cast<KeywordId>(q % 5 + 3), 5}});
    ExpectSameUpdate(automaton.ProcessQuantum(q, counts, never),
                     reference.ProcessQuantum(q, counts, never), q);
    ASSERT_EQ(automaton.tracked_keywords(), reference.tracked_keywords())
        << "quantum " << q;
    BinaryWriter out;
    automaton.Save(out);
    ASSERT_EQ(out.data(), reference.Encode()) << "quantum " << q;
  }
}

// A last-bursty stamp for an untracked keyword cannot arise from any
// stream; Restore rejects it instead of tracking a stamp it never prunes.
TEST(NodeStateTest, RestoreRejectsBurstyStampWithoutLastSeen) {
  BinaryWriter out;
  out.U64(1);  // last-seen
  out.U32(7);
  out.I64(3);
  out.U64(1);  // last-bursty, for keyword 8 (untracked)
  out.U32(8);
  out.I64(3);
  out.U64(0);  // members
  NodeStateAutomaton automaton(4, 3);
  BinaryReader in(out.data());
  EXPECT_FALSE(automaton.Restore(in));
  EXPECT_EQ(automaton.tracked_keywords(), 0u);
}

// The shard-parallel fold: the keyword window and the whole AkgBuilder
// folded through a real 4-thread ShardPool equal the serial fold, query
// for query and byte for byte.
TEST(AkgParallelFoldTest, ShardPoolFoldEqualsSerialFold) {
  engine::ShardPool pool(4);
  const ParallelForFn pooled =
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.ParallelFor(n, body);
      };
  std::vector<KeywordId> keywords = StreamKeywords();
  for (KeywordId k = 100; k < 180; ++k) keywords.push_back(k);

  for (bool weighted : {false, true}) {
    UserIdSets serial_window(6, 4, 7, weighted);
    UserIdSets pooled_window(6, 4, 7, weighted);
    AkgConfig config;
    config.window_length = 6;
    config.high_state_threshold = 3;
    config.weighted_minhash = weighted;
    AkgBuilder serial_builder(config, [](KeywordId) { return false; });
    AkgBuilder pooled_builder(config, [](KeywordId) { return false; });
    pooled_builder.set_parallel_for(pooled);

    Rng rng(weighted ? 21 : 22);
    for (QuantumIndex q = 0; q < 40; ++q) {
      const QuantumAggregate aggregate = RandomAggregate(rng, q, keywords);
      serial_window.IngestAggregate(aggregate, nullptr);
      pooled_window.IngestAggregate(aggregate, pooled);
      serial_builder.ProcessAggregate(aggregate);
      pooled_builder.ProcessAggregate(aggregate);

      ASSERT_EQ(pooled_window.QuantumKeywords(),
                serial_window.QuantumKeywords());
      for (KeywordId k : keywords) {
        ASSERT_EQ(pooled_window.WindowSupport(k),
                  serial_window.WindowSupport(k));
        ASSERT_EQ(pooled_window.WindowSketch(k),
                  serial_window.WindowSketch(k));
      }
      BinaryWriter a, b, c, d, e, f;
      serial_window.Save(a);
      pooled_window.Save(b);
      serial_window.SaveSketches(c);
      pooled_window.SaveSketches(d);
      serial_builder.Save(e);
      pooled_builder.Save(f);
      ASSERT_EQ(a.data(), b.data()) << "quantum " << q;
      ASSERT_EQ(c.data(), d.data()) << "quantum " << q;
      ASSERT_EQ(e.data(), f.data()) << "quantum " << q;
    }
  }
}

}  // namespace
}  // namespace scprt::akg

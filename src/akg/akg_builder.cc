#include "akg/akg_builder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::akg {

using graph::Edge;

namespace {

std::size_t ResolveMinHashSize(const AkgConfig& config) {
  return config.minhash_size > 0
             ? config.minhash_size
             : DefaultMinHashSize(config.high_state_threshold,
                                  config.ec_threshold);
}

}  // namespace

AkgBuilder::AkgBuilder(const AkgConfig& config,
                       std::function<bool(KeywordId)> in_cluster)
    : config_(config),
      in_cluster_(std::move(in_cluster)),
      window_(config.window_length, ResolveMinHashSize(config), config.seed,
              config.weighted_minhash),
      node_state_(config.high_state_threshold, config.window_length) {
  SCPRT_CHECK(config.ec_threshold > 0.0 && config.ec_threshold <= 1.0);
  SCPRT_CHECK(in_cluster_ != nullptr);
}

double AkgBuilder::EdgeCorrelation(const Edge& e) const {
  auto it = edge_ec_.find(e);
  return it == edge_ec_.end() ? 0.0 : it->second;
}

GraphDelta AkgBuilder::ProcessQuantum(const stream::Quantum& quantum) {
  return ProcessAggregate(AggregateQuantum(quantum));
}

GraphDelta AkgBuilder::ProcessAggregate(const QuantumAggregate& aggregate) {
  GraphDelta delta;
  delta.quantum = aggregate.index;
  now_ = aggregate.index;
  last_stats_ = AkgQuantumStats{};

  // --- 1. Ingest the quantum's (keyword, user) aggregate into the keyword
  //        window: id-set fold, per-quantum sketches and expiry run
  //        keyword-shard-parallel ---
  {
    // Window ingest cost (id-set fold + per-quantum Min-Hash build);
    // batch-level timing only — per-keyword clocks would swamp the work.
    static obs::Histogram* const sketch_hist =
        obs::Registry::Default().GetHistogram("akg.sketch_ingest_ns");
    obs::ScopedSpan span("akg.sketch");
    obs::ScopedHistogramTimer timer(sketch_hist);
    window_.IngestAggregate(aggregate, parallel_for_);
  }

  // --- 2. Node state transitions (Section 3.1) ---
  std::vector<std::pair<KeywordId, std::uint32_t>> quantum_keywords;
  quantum_keywords.reserve(window_.QuantumKeywords().size());
  for (KeywordId k : window_.QuantumKeywords()) {
    quantum_keywords.emplace_back(
        k, static_cast<std::uint32_t>(window_.QuantumSupport(k)));
  }
  const NodeStateUpdate update =
      node_state_.ProcessQuantum(now_, quantum_keywords, in_cluster_);
  delta.nodes_added = update.entered;

  // --- 3. Evict removed nodes and their edges ---
  for (KeywordId k : update.removed) {
    if (akg_.HasNode(k)) {
      for (KeywordId neighbor : akg_.Neighbors(k)) {
        const Edge e = Edge::Of(k, neighbor);
        delta.edges_removed.push_back(e);
        edge_ec_.erase(e);
      }
      akg_.RemoveNode(k);
    }
    signatures_.erase(k);
    delta.nodes_removed.push_back(k);
  }
  for (KeywordId k : update.entered) akg_.AddNode(k);

  // --- 4. Refresh signatures of keywords whose id sets changed and are
  //        relevant this quantum: set (1) bursty + set (2) AKG-and-seen.
  //        Each window sketch is a Combine fold over the keyword's cached
  //        per-quantum sketches (no rehash of the folded window id set);
  //        sketches depend only on their own ring entries, so the batch
  //        runs through the parallel hook; writes into signatures_ stay on
  //        this thread. ---
  std::vector<KeywordId> refresh = update.bursty;
  refresh.insert(refresh.end(), update.seen_in_akg.begin(),
                 update.seen_in_akg.end());
  std::vector<KeywordSignature> refreshed(refresh.size());
  {
    // Window-sketch Combine-fold cost for the whole refresh batch — the
    // per-quantum merge bill of the sketch window.
    static obs::Histogram* const refresh_hist =
        obs::Registry::Default().GetHistogram("akg.signature_refresh_ns");
    obs::ScopedSpan span("akg.refresh");
    obs::ScopedHistogramTimer timer(refresh_hist);
    parallel_for_(refresh.size(), [&](std::size_t i) {
      refreshed[i].sketch = window_.WindowSketch(refresh[i]);
      refreshed[i].values = WeightedMinHasher::Values(refreshed[i].sketch);
    });
  }
  for (std::size_t i = 0; i < refresh.size(); ++i) {
    signatures_[refresh[i]] = std::move(refreshed[i]);
  }

  // --- 5. New edges among set (1) (Section 3.2.1): bucket-join on shared
  //        Min-Hash values to avoid the quadratic pair scan ---
  const double gamma = config_.ec_threshold;
  std::vector<std::pair<KeywordId, KeywordId>> candidates;
  if (config_.ec_mode == EcMode::kExact) {
    for (std::size_t i = 0; i < update.bursty.size(); ++i) {
      for (std::size_t j = i + 1; j < update.bursty.size(); ++j) {
        candidates.emplace_back(update.bursty[i], update.bursty[j]);
      }
    }
  } else {
    std::unordered_map<std::uint64_t, std::vector<KeywordId>> buckets;
    for (KeywordId k : update.bursty) {
      for (std::uint64_t h : signatures_[k].values) buckets[h].push_back(k);
    }
    std::unordered_set<std::uint64_t> emitted;
    for (const auto& [h, members] : buckets) {
      if (members.size() < 2) continue;
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          KeywordId a = members[i], b = members[j];
          if (a > b) std::swap(a, b);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(a) << 32) | b;
          if (emitted.insert(key).second) candidates.emplace_back(a, b);
        }
      }
    }
  }
  last_stats_.pairs_screened = candidates.size();

  // The bucket join already is the Min-Hash screen (every candidate shares
  // a signature value; kExact takes every pair). Batch the EC computations
  // of the pairs not yet connected through the parallel hook (pure reads
  // of id sets and signatures), then apply results in candidate order.
  std::vector<std::pair<KeywordId, KeywordId>> add_jobs;
  for (const auto& [a, b] : candidates) {
    if (!akg_.HasEdge(a, b)) add_jobs.emplace_back(a, b);
  }
  std::vector<double> add_ecs(add_jobs.size());
  parallel_for_(add_jobs.size(), [&](std::size_t i) {
    const auto [a, b] = add_jobs[i];
    add_ecs[i] = ComputeEc(config_.ec_mode, config_.weighted_minhash,
                           window_, a, b, signatures_.at(a),
                           signatures_.at(b), window_.hasher().p());
  });
  last_stats_.ec_computed += add_jobs.size();
  for (std::size_t i = 0; i < add_jobs.size(); ++i) {
    const auto [a, b] = add_jobs[i];
    const double ec = add_ecs[i];
    if (ec >= gamma) {
      akg_.AddEdge(a, b);
      const Edge e = Edge::Of(a, b);
      edge_ec_[e] = ec;
      delta.edges_added.emplace_back(e, ec);
    }
  }

  // --- 6. Lazy re-validation (Section 3.2.1 set (2)): keywords seen this
  //        quantum update the EC with their current neighbors; edges whose
  //        correlation fell below gamma are dropped ---
  // The pair set is fixed up front (removals below can only drop pairs
  // that are already in the batch), so the EC batch runs through the
  // parallel hook; EC reads only id sets and signatures, which the
  // removals do not touch. Results apply in collection order. The touched
  // set is exactly the signature-refresh set built in step 4.
  std::unordered_set<std::uint64_t> revalidated;
  std::vector<std::pair<KeywordId, KeywordId>> reval_jobs;
  for (KeywordId k : refresh) {
    if (!akg_.HasNode(k)) continue;
    for (KeywordId neighbor : akg_.Neighbors(k)) {
      KeywordId a = k, b = neighbor;
      if (a > b) std::swap(a, b);
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      if (revalidated.insert(key).second) reval_jobs.emplace_back(a, b);
    }
  }
  std::vector<double> reval_ecs(reval_jobs.size());
  parallel_for_(reval_jobs.size(), [&](std::size_t i) {
    const auto [a, b] = reval_jobs[i];
    // Both signatures may be stale for the untouched endpoint; EC is
    // computed from exact id sets except in kMinHashOnly mode.
    reval_ecs[i] = ComputeEc(config_.ec_mode, config_.weighted_minhash,
                             window_, a, b, signatures_.at(a),
                             signatures_.at(b), window_.hasher().p());
  });
  last_stats_.ec_computed += reval_jobs.size();
  for (std::size_t i = 0; i < reval_jobs.size(); ++i) {
    const auto [a, b] = reval_jobs[i];
    const Edge e = Edge::Of(a, b);
    const double ec = reval_ecs[i];
    if (ec < gamma) {
      akg_.RemoveEdge(a, b);
      edge_ec_.erase(e);
      delta.edges_removed.push_back(e);
    } else if (ec != edge_ec_[e]) {
      edge_ec_[e] = ec;
      delta.ec_updated.emplace_back(e, ec);
    }
  }

  // --- 7. Stats snapshot (Section 7.4) ---
  last_stats_.ckg_nodes = node_state_.tracked_keywords();
  last_stats_.quantum_keywords = quantum_keywords.size();
  last_stats_.akg_nodes = akg_.node_count();
  last_stats_.akg_edges = akg_.edge_count();
  last_stats_.bursty = update.bursty.size();
  return delta;
}

WeightedSketch AkgBuilder::ExportClusterSketch(
    const std::vector<KeywordId>& keywords) const {
  const std::size_t p = window_.hasher().p();
  WeightedSketch sketch;
  WeightedSketch scratch;
  for (KeywordId keyword : keywords) {
    const auto it = signatures_.find(keyword);
    if (it != signatures_.end()) {
      WeightedMinHasher::FoldInto(sketch, it->second.sketch, p, scratch);
    }
  }
  return sketch;
}

std::size_t AkgBuilder::sketch_size() const {
  return window_.hasher().p();
}

void AkgBuilder::Save(BinaryWriter& out) const {
  out.I64(now_);
  window_.Save(out);
  node_state_.Save(out);
  akg_.Save(out);

  std::vector<KeywordId> signed_keywords;
  signed_keywords.reserve(signatures_.size());
  for (const auto& [keyword, _] : signatures_) {
    signed_keywords.push_back(keyword);
  }
  std::sort(signed_keywords.begin(), signed_keywords.end());
  out.U64(signed_keywords.size());
  for (KeywordId keyword : signed_keywords) {
    const KeywordSignature& sig = signatures_.at(keyword);
    out.U32(keyword);
    out.U32(static_cast<std::uint32_t>(sig.values.size()));
    for (std::uint64_t value : sig.values) out.U64(value);
    if (config_.weighted_minhash) {
      // One score per value, value-aligned: the realized weighted draws
      // cannot be recomputed from the id sets (message counts are gone),
      // so they ride along. Unweighted scores are a pure function of the
      // value — the encoding above stays byte-identical to version 3.
      for (std::uint64_t value : sig.values) {
        double score = 0.0;
        for (const SketchEntry& entry : sig.sketch) {
          if (entry.key == value) {
            score = entry.score;
            break;
          }
        }
        out.F64(score);
      }
    }
  }
  if (config_.weighted_minhash) window_.SaveSketches(out);

  std::vector<Edge> ec_edges;
  ec_edges.reserve(edge_ec_.size());
  for (const auto& [e, _] : edge_ec_) ec_edges.push_back(e);
  std::sort(ec_edges.begin(), ec_edges.end());
  out.U64(ec_edges.size());
  for (const Edge& e : ec_edges) {
    out.U32(e.u);
    out.U32(e.v);
    out.F64(edge_ec_.at(e));
  }

  out.U64(last_stats_.ckg_nodes);
  out.U64(last_stats_.quantum_keywords);
  out.U64(last_stats_.akg_nodes);
  out.U64(last_stats_.akg_edges);
  out.U64(last_stats_.bursty);
  out.U64(last_stats_.pairs_screened);
  out.U64(last_stats_.ec_computed);
}

bool AkgBuilder::Restore(BinaryReader& in) {
  const auto reset = [this] {
    akg_.Clear();
    edge_ec_.clear();
    signatures_.clear();
    window_.Clear();
    node_state_.Clear();
    last_stats_ = AkgQuantumStats{};
    now_ = 0;
  };
  reset();
  now_ = in.I64();
  if (!window_.Restore(in) || !node_state_.Restore(in) ||
      !akg_.Restore(in)) {
    reset();
    return false;
  }

  const std::size_t p = window_.hasher().p();
  const std::uint64_t signatures = in.U64();
  bool valid = in.CheckLength(signatures, 4 + 4 + 8);
  for (std::uint64_t i = 0; valid && i < signatures; ++i) {
    const KeywordId keyword = in.U32();
    const std::uint32_t length = in.U32();
    // A signature holds at most p values by construction.
    if (length > p || !in.CheckLength(length, 8)) {
      valid = false;
      break;
    }
    KeywordSignature sig;
    sig.values.resize(length);
    for (std::uint32_t j = 0; j < length; ++j) sig.values[j] = in.U64();
    // Strictly ascending: the values are distinct sketch keys.
    if (!in.ok() ||
        std::adjacent_find(sig.values.begin(), sig.values.end(),
                           std::greater_equal<std::uint64_t>()) !=
            sig.values.end()) {
      valid = false;
      break;
    }
    if (config_.weighted_minhash) {
      // Value-aligned realized scores; the sketch is the (key, score)
      // pairs in sketch order.
      if (!in.CheckLength(length, 8)) {
        valid = false;
        break;
      }
      sig.sketch.reserve(length);
      for (std::uint32_t j = 0; j < length; ++j) {
        const double score = in.F64();
        if (!std::isfinite(score) || score < 0.0) {
          valid = false;
          break;
        }
        sig.sketch.push_back({sig.values[j], score});
      }
      if (!valid || !in.ok()) {
        valid = false;
        break;
      }
      std::sort(sig.sketch.begin(), sig.sketch.end(), SketchOrderLess);
    } else {
      sig.sketch = WeightedMinHasher::FromValues(sig.values);
    }
    if (!signatures_.emplace(keyword, std::move(sig)).second) {
      valid = false;
      break;
    }
  }

  // Weighted per-quantum sketches ride here, checked run for run against
  // the restored histories; unweighted ones were rebuilt from them.
  if (valid && config_.weighted_minhash) valid = window_.RestoreSketches(in);

  const std::uint64_t correlations = valid ? in.U64() : 0;
  valid = valid && in.CheckLength(correlations, 4 + 4 + 8);
  for (std::uint64_t i = 0; valid && i < correlations; ++i) {
    const KeywordId u = in.U32();
    const KeywordId v = in.U32();
    const double ec = in.F64();
    // Correlations exist exactly for AKG edges, in [0, 1].
    if (!in.ok() || u >= v || !akg_.HasEdge(u, v) || !(ec >= 0.0) ||
        !(ec <= 1.0) ||
        !edge_ec_.emplace(Edge{u, v}, ec).second) {
      valid = false;
      break;
    }
  }
  valid = valid && correlations == akg_.edge_count();

  // The lazy re-validation loop calls signatures_.at() on every AKG edge
  // endpoint, so that invariant must hold even for a forged payload with a
  // valid CRC — reject rather than crash later.
  if (valid) {
    for (const Edge& e : akg_.Edges()) {
      if (signatures_.count(e.u) == 0 || signatures_.count(e.v) == 0) {
        valid = false;
        break;
      }
    }
  }

  last_stats_.ckg_nodes = in.U64();
  last_stats_.quantum_keywords = in.U64();
  last_stats_.akg_nodes = in.U64();
  last_stats_.akg_edges = in.U64();
  last_stats_.bursty = in.U64();
  last_stats_.pairs_screened = in.U64();
  last_stats_.ec_computed = in.U64();

  if (!valid || !in.ok()) {
    reset();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg

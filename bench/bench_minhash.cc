// Min-Hash sketch micro-bench: per-quantum sketch build cost and the
// window-merge cost of two left folds — through the allocating Combine vs
// through FoldInto, the in-place fold the keyword window uses.
//
// Runs a synthetic trace through the canonical aggregation path, caches
// every keyword's per-quantum sketches, then times:
//
//   * build_ns_per_entry     — QuantumSketch over every (keyword, quantum)
//                              aggregate entry, unweighted and weighted;
//   * serial_fold_ns_per_window / fold_into_ns_per_window — producing
//     every keyword's window sketch from its cached per-quantum sketches,
//     once through Combine, once through FoldInto (both give bit-identical
//     sketches; the harness verifies it and exits 1 if they differ).
//
// With --json FILE the results are written as a flat metric dict
// (nanoseconds — lower is better) for scripts/bench_trend.py.
//
//   $ ./bench_minhash [--json FILE]

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "akg/minhash.h"
#include "akg/quantum_aggregate.h"
#include "common/types.h"
#include "eval/throughput.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace {

using scprt::akg::WeightedMinHasher;
using scprt::akg::WeightedSketch;

struct KeywordRing {
  scprt::KeywordId keyword = 0;
  std::vector<WeightedSketch> quanta;  // the window's per-quantum sketches
};

// The window sketch folded in place, as the keyword window folds it.
WeightedSketch FoldInPlace(const KeywordRing& ring, std::size_t p) {
  WeightedSketch acc;
  WeightedSketch scratch;
  for (const WeightedSketch& part : ring.quanta) {
    WeightedMinHasher::FoldInto(acc, part, p, scratch);
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  scprt::stream::SyntheticConfig tc;
  tc.seed = 17;
  tc.num_messages = 60'000;
  tc.num_users = 8'000;
  tc.background_vocab = 6'000;
  tc.num_events = 6;
  const scprt::stream::SyntheticTrace trace =
      scprt::stream::GenerateSyntheticTrace(tc);
  const std::vector<scprt::stream::Quantum> quanta =
      scprt::stream::SplitIntoQuanta(trace.messages, 200,
                                     /*keep_partial=*/false);

  std::vector<scprt::akg::QuantumAggregate> aggregates;
  aggregates.reserve(quanta.size());
  std::size_t entries = 0;
  for (const scprt::stream::Quantum& quantum : quanta) {
    aggregates.push_back(scprt::akg::AggregateQuantum(quantum));
    entries += aggregates.back().size();
  }
  std::printf("%zu quanta, %zu aggregate entries\n", quanta.size(), entries);

  constexpr std::size_t kP = 8;
  constexpr std::size_t kWindow = 30;
  constexpr int kRounds = 5;

  // --- sketch build, both score modes ---
  double build_ns[2] = {0.0, 0.0};
  for (const bool weighted : {false, true}) {
    const WeightedMinHasher hasher(kP, 0x5ca1ab1eULL, weighted);
    scprt::eval::Stopwatch watch;
    std::size_t built = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const scprt::akg::QuantumAggregate& aggregate : aggregates) {
        for (std::size_t i = 0; i < aggregate.size(); ++i) {
          const WeightedSketch sketch = hasher.QuantumSketch(
              aggregate.index, aggregate.UsersOf(i), aggregate.CountsOf(i));
          built += sketch.size();  // defeat dead-code elimination
        }
      }
    }
    build_ns[weighted ? 1 : 0] =
        watch.ElapsedSeconds() * 1e9 / (kRounds * entries);
    std::printf("build (%10s)      : %8.1f ns/entry  (checksum %zu)\n",
                weighted ? "weighted" : "unweighted",
                build_ns[weighted ? 1 : 0], built);
  }

  // --- window merge: allocating fold vs FoldInto over the same rings ---
  const WeightedMinHasher hasher(kP, 0x5ca1ab1eULL, /*weighted=*/true);
  std::unordered_map<scprt::KeywordId, KeywordRing> rings;
  for (const scprt::akg::QuantumAggregate& aggregate : aggregates) {
    for (std::size_t i = 0; i < aggregate.size(); ++i) {
      KeywordRing& ring = rings[aggregate.keywords[i]];
      ring.keyword = aggregate.keywords[i];
      if (ring.quanta.size() < kWindow) {
        ring.quanta.push_back(hasher.QuantumSketch(
            aggregate.index, aggregate.UsersOf(i), aggregate.CountsOf(i)));
      }
    }
  }
  std::size_t windows = 0;
  for (const auto& [keyword, ring] : rings) {
    windows += ring.quanta.size() > 1 ? 1 : 0;
  }
  std::printf("%zu keywords with multi-quantum windows\n", windows);

  double fold_ns = 0.0, in_place_ns = 0.0;
  std::size_t mismatches = 0;
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        WeightedSketch folded;
        for (const WeightedSketch& part : ring.quanta) {
          folded = WeightedMinHasher::Combine(folded, part, kP);
        }
        sink += folded.size();
      }
    }
    fold_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("serial fold           : %8.1f ns/window (checksum %zu)\n",
                fold_ns, sink);
  }
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        sink += FoldInPlace(ring, kP).size();
      }
    }
    in_place_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("FoldInto (in place)   : %8.1f ns/window (checksum %zu)\n",
                in_place_ns, sink);
  }

  // Correctness spot check: the two folds agree bit for bit.
  for (const auto& [keyword, ring] : rings) {
    WeightedSketch folded;
    for (const WeightedSketch& part : ring.quanta) {
      folded = WeightedMinHasher::Combine(folded, part, kP);
    }
    if (folded != FoldInPlace(ring, kP)) {
      ++mismatches;
    }
  }
  std::printf("Combine vs FoldInto   : %s\n",
              mismatches == 0 ? "bit-identical" : "DIVERGED (bug!)");
  if (mismatches != 0) return 1;

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"p\": %zu,\n"
                 "  \"window\": %zu,\n"
                 "  \"build\": {\"unweighted_ns_per_entry\": %.1f, "
                 "\"weighted_ns_per_entry\": %.1f},\n"
                 "  \"merge\": {\"serial_fold_ns_per_window\": %.1f, "
                 "\"fold_into_ns_per_window\": %.1f}\n"
                 "}\n",
                 kP, kWindow, build_ns[0], build_ns[1], fold_ns, in_place_ns);
    std::fclose(out);
  }
  return 0;
}

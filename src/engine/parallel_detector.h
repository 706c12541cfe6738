// Sharded multi-threaded front end over the single-threaded EventDetector.
//
// A pool of S workers runs the detector's pure per-item hot loops. Each
// quantum flows through three stages:
//
//   1. aggregate   (serial)    — the quantum reduces to its canonical
//                                QuantumAggregate through the same flat
//                                builder the serial detector uses
//                                (akg/quantum_aggregate.h): at δ = 160
//                                sorting ~10^3 packed keys costs less
//                                than a fork/join over the pool;
//   2. graph + SCP (serial core, parallel hot loops) — the keyword window
//                                folds its keyword shards, and the AKG
//                                builder batches Min-Hash signature
//                                refreshes and edge-correlation
//                                computations, through the pool; then the
//                                single-writer ScpMaintainer applies the
//                                structural delta;
//   3. snapshot    (parallel)  — per-cluster report cores compute on the
//                                pool and merge in canonical (cluster id,
//                                then rank) order.
//
// Every parallel stage writes only per-index slots and every serial stage
// consumes canonical orderings, so the emitted QuantumReport sequence is
// bit-identical to EventDetector's on the same stream at any thread count
// (tests/parallel_detector_test.cc proves it at 1, 2 and 8 threads).

#ifndef SCPRT_ENGINE_PARALLEL_DETECTOR_H_
#define SCPRT_ENGINE_PARALLEL_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "akg/quantum_aggregate.h"
#include "detect/checkpoint.h"
#include "detect/config.h"
#include "detect/detector.h"
#include "detect/snapshot_io.h"
#include "engine/shard_pool.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "text/keyword_dictionary.h"

namespace scprt::engine {

/// Engine tuning on top of the detector configuration.
struct ParallelDetectorConfig {
  detect::DetectorConfig detector;
  /// Worker threads (= keyword shards). 0 derives the hardware concurrency;
  /// 1 runs everything inline on the calling thread.
  std::size_t threads = 0;
};

/// Drop-in parallel EventDetector: same Push/ProcessQuantum/Run surface,
/// same reports, sharded execution. Not thread-safe itself — one driver
/// thread feeds it, the pool parallelizes underneath.
class ParallelDetector {
 public:
  ParallelDetector(const ParallelDetectorConfig& config,
                   const text::KeywordDictionary* dictionary);

  /// Streams one message; returns a report when it completed a quantum.
  std::optional<detect::QuantumReport> Push(const stream::Message& message);

  /// Processes one pre-built quantum (clock re-bases past it).
  detect::QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  /// Runs a whole trace; returns every quantum report.
  std::vector<detect::QuantumReport> Run(
      const std::vector<stream::Message>& trace);

  /// Degree of parallelism actually in use.
  std::size_t threads() const { return pool_.threads(); }

  /// The wrapped single-writer core (state inspection).
  const detect::EventDetector& core() const { return detector_; }

  /// Forwards to the core detector's report-time cluster sink (fires on
  /// the engine's driver thread, inside ProcessQuantum). nullptr detaches.
  void set_cluster_sink(detect::ClusterSink* sink) {
    detector_.set_cluster_sink(sink);
  }

  /// Writes a full native snapshot after quiescing the shard pool (the
  /// checkpoint fence: every in-flight shard task completes before a state
  /// byte is read). The format is detect/checkpoint.h's: a snapshot saved
  /// here loads through detect::LoadCheckpoint (and vice versa) — thread
  /// count is an engine property, not a snapshot property. `extras`
  /// attaches a quantizer override / IngestState exactly as the serial
  /// saver does (the ingest path passes its assembler's quantizer — the
  /// outermost accumulator). Returns false on stream failure.
  bool SaveCheckpoint(std::ostream& out,
                      std::uint64_t* checkpoint_id = nullptr,
                      const detect::CheckpointExtras& extras = {});

  /// Restores an engine from a full snapshot, running on `threads` workers
  /// (0 derives hardware concurrency). Returns nullptr on malformed input,
  /// with the typed reason in `error` (optional out); `ingest` /
  /// `ingest_present` surface the IngestState section when present.
  static std::unique_ptr<ParallelDetector> LoadCheckpoint(
      std::istream& in, const text::KeywordDictionary* dictionary,
      std::size_t threads, std::uint64_t* checkpoint_id = nullptr,
      detect::snapshot_io::LoadError* error = nullptr,
      detect::snapshot_io::IngestState* ingest = nullptr,
      bool* ingest_present = nullptr);

  /// Writes a delta checkpoint against the full snapshot identified by
  /// `base_id`: the given quanta processed since it, plus this engine's
  /// current pending partial quantum and clock (which live in the outer
  /// quantizer — detect::SaveDeltaCheckpoint on core() would silently save
  /// an empty pending list, so engine deltas must go through here; an
  /// extras.quantizer_override substitutes the ingest assembler's).
  bool SaveDeltaCheckpoint(std::uint64_t base_id,
                           const std::vector<stream::Quantum>& quanta,
                           std::ostream& out,
                           const detect::CheckpointExtras& extras = {});

  /// Applies a delta checkpoint (same format as the serial applier — both
  /// validate through snapshot_io::ReadAndValidateDelta) to this freshly
  /// restored engine; the bounded replay runs sharded. Returns false
  /// (engine unchanged) on malformed input or base mismatch, with the
  /// typed reason in `error` (optional out).
  bool ApplyDeltaCheckpoint(std::istream& in, std::uint64_t expected_base_id,
                            detect::snapshot_io::LoadError* error = nullptr,
                            detect::snapshot_io::IngestState* ingest = nullptr,
                            bool* ingest_present = nullptr);

  /// Replays an already-validated delta payload (the staged resume path:
  /// ingest/durable.h must install the delta's dictionary before the
  /// replay touches its keyword ids, so validation and application are
  /// separate steps there).
  void ApplyValidatedDelta(const detect::snapshot_io::DeltaPayload& delta);

  /// Clock of the outer quantizer (the engine's accumulation point).
  QuantumIndex next_quantum_index() const { return quantizer_.next_index(); }

  /// Moves the restored pending partial quantum out of the outer quantizer
  /// (ingest resume hands accumulation onward to the assembler).
  std::vector<stream::Message> TakePendingMessages() {
    return quantizer_.TakePending();
  }

 private:
  ShardPool pool_;  // outlives detector_'s parallel hook
  detect::EventDetector detector_;
  stream::Quantizer quantizer_;
  // Stage 1's aggregate, rebuilt in place every quantum.
  akg::QuantumAggregate aggregate_;
};

}  // namespace scprt::engine

#endif  // SCPRT_ENGINE_PARALLEL_DETECTOR_H_

#include "engine/parallel_detector.h"

#include <thread>
#include <utility>

#include "common/binary_io.h"
#include "detect/snapshot_io.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::engine {
namespace {

std::size_t ResolveThreads(std::size_t threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ParallelDetector::ParallelDetector(const ParallelDetectorConfig& config,
                                   const text::KeywordDictionary* dictionary)
    : pool_(ResolveThreads(config.threads)),
      detector_(config.detector, dictionary),
      quantizer_(config.detector.quantum_size) {
  if (pool_.threads() > 1) {
    detector_.set_parallel_for(
        [this](std::size_t n, const std::function<void(std::size_t)>& body) {
          pool_.ParallelFor(n, body);
        });
  }
}

std::optional<detect::QuantumReport> ParallelDetector::Push(
    const stream::Message& message) {
  auto quantum = quantizer_.Push(message);
  if (!quantum) return std::nullopt;
  return ProcessQuantum(*quantum);
}

detect::QuantumReport ParallelDetector::ProcessQuantum(
    const stream::Quantum& quantum) {
  if (quantizer_.next_index() <= quantum.index) {
    quantizer_.SetNextIndex(quantum.index + 1);
  }
  {
    // Clock reads only, so the aggregate stays bit-identical with
    // observability on or off (parallel_detector_test holds this).
    static obs::Histogram* const aggregate_hist =
        obs::Registry::Default().GetHistogram("engine.aggregate_ns");
    obs::ScopedSpan span("aggregate");
    obs::ScopedHistogramTimer timer(aggregate_hist);
    akg::AggregateQuantum(quantum, aggregate_);
  }
  // Core detection (AKG update, clustering, ranking) as its own span so a
  // trace separates aggregation cost from detection cost per quantum.
  obs::ScopedSpan span("detect.core");
  return detector_.ProcessQuantumWithAggregate(quantum, aggregate_);
}

std::vector<detect::QuantumReport> ParallelDetector::Run(
    const std::vector<stream::Message>& trace) {
  std::vector<detect::QuantumReport> reports;
  for (const stream::Message& m : trace) {
    if (auto report = Push(m)) reports.push_back(*std::move(report));
  }
  return reports;
}

bool ParallelDetector::SaveCheckpoint(std::ostream& out,
                                      std::uint64_t* checkpoint_id,
                                      const detect::CheckpointExtras& extras) {
  namespace sio = detect::snapshot_io;
  pool_.Quiesce();  // all shard work fenced; core state is ours to read
  BinaryWriter payload;
  sio::WriteConfig(payload, detector_.config());
  // The engine's outer quantizer owns accumulation (the core's stays
  // empty), so its clock and pending messages are the snapshot's — unless
  // an even-more-outer quantizer (the ingest assembler's) overrides it.
  detector_.SaveState(payload, extras.quantizer_override != nullptr
                                   ? extras.quantizer_override
                                   : &quantizer_);
  if (extras.ingest != nullptr) {
    sio::WriteIngestSection(payload, *extras.ingest);
  }
  return sio::WriteFrame(out, sio::FrameKind::kFull, payload.data(),
                         checkpoint_id);
}

std::unique_ptr<ParallelDetector> ParallelDetector::LoadCheckpoint(
    std::istream& in, const text::KeywordDictionary* dictionary,
    std::size_t threads, std::uint64_t* checkpoint_id,
    detect::snapshot_io::LoadError* error,
    detect::snapshot_io::IngestState* ingest, bool* ingest_present) {
  namespace sio = detect::snapshot_io;
  std::unique_ptr<ParallelDetector> engine;
  if (!sio::ReadFullSnapshot(
          in,
          [&](BinaryReader& reader, const detect::DetectorConfig& parsed) {
            ParallelDetectorConfig config;
            config.detector = parsed;
            config.threads = threads;
            engine = std::make_unique<ParallelDetector>(config, dictionary);
            return engine->detector_.RestoreState(reader);
          },
          checkpoint_id, error, ingest, ingest_present)) {
    return nullptr;
  }
  // Move the restored partial quantum into the outer quantizer — the core
  // never accumulates in engine mode.
  engine->quantizer_.Restore(engine->detector_.next_quantum_index(),
                             engine->detector_.TakePendingMessages());
  return engine;
}

bool ParallelDetector::SaveDeltaCheckpoint(
    std::uint64_t base_id, const std::vector<stream::Quantum>& quanta,
    std::ostream& out, const detect::CheckpointExtras& extras) {
  namespace sio = detect::snapshot_io;
  pool_.Quiesce();
  // The outer quantizer owns accumulation in engine mode: its clock and
  // pending messages are the delta's (the core's pending is always empty).
  // The ingest assembler's quantizer overrides both when supplied.
  const stream::Quantizer& quantizer = extras.quantizer_override != nullptr
                                           ? *extras.quantizer_override
                                           : quantizer_;
  BinaryWriter payload;
  sio::WriteDelta(payload, base_id, quantizer.next_index(), quanta,
                  quantizer.pending());
  if (extras.ingest != nullptr) {
    sio::WriteIngestSection(payload, *extras.ingest);
  }
  return sio::WriteFrame(out, sio::FrameKind::kDelta, payload.data());
}

bool ParallelDetector::ApplyDeltaCheckpoint(
    std::istream& in, std::uint64_t expected_base_id,
    detect::snapshot_io::LoadError* error,
    detect::snapshot_io::IngestState* ingest, bool* ingest_present) {
  namespace sio = detect::snapshot_io;
  sio::DeltaPayload delta;
  if (!sio::ReadAndValidateDelta(in, expected_base_id,
                                 quantizer_.next_index(),
                                 detector_.config().quantum_size, delta,
                                 error, ingest, ingest_present)) {
    return false;
  }
  ApplyValidatedDelta(delta);
  return true;
}

void ParallelDetector::ApplyValidatedDelta(
    const detect::snapshot_io::DeltaPayload& delta) {
  // Mirror of detect::ApplyDeltaCheckpoint, replayed through the sharded
  // pipeline (reports are bit-identical either way). The base's pending
  // partial quantum is superseded by the delta's.
  quantizer_.Restore(quantizer_.next_index(), {});
  for (const stream::Quantum& quantum : delta.quanta) {
    ProcessQuantum(quantum);
  }
  for (const stream::Message& m : delta.pending) {
    Push(m);
  }
}

}  // namespace scprt::engine

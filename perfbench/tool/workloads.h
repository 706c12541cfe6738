// The benchmark's two tool steps: Prepare writes a workload's inputs (and
// the reference report digests) into a scratch directory; RunWorkload reads
// only those files, drives the detector through its public API and
// measures it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "result.h"

namespace perfbench {

/// File names inside a prepared directory.
inline constexpr const char* kTraceFile = "input.trace";
inline constexpr const char* kJsonlFile = "input.jsonl";
inline constexpr const char* kReferenceFile = "reference.digests";

/// How Prepare computes the reference digests a run is checked against.
enum class Reference {
  kSerial,    // serial EventDetector over the trace
  kReintern,  // serial EventDetector over the trace re-interned in arrival
              // order, the ids a fresh-dictionary raw-text ingest assigns
};

struct PrepareOptions {
  std::string preset;  // "tw" or "es"
  std::uint64_t seed = 0;
  std::uint64_t messages = 0;
  std::size_t quantum_size = 160;
  bool jsonl = false;
  Reference reference = Reference::kSerial;
  std::string dir;
};

/// Generates the inputs. Returns false (with a message on stderr) on
/// failure.
bool Prepare(const PrepareOptions& options);

struct WorkloadOptions {
  std::string workload;  // tw_serial | es_serial | ingest_wal_tw
  std::string dir;       // prepared by Prepare; passes write below it
  bool traced = false;
  std::size_t quantum_size = 160;
  /// Setup repetitions; setup_s is their median. An untraced run makes
  /// half of them before the measured passes and half after.
  std::size_t setup_reps = 5;
  /// Closed-loop repetitions over the whole input, run until this much
  /// wall time is spent (at least one of them).
  double closed_seconds = 5;
  /// Messages of the open-loop pass (a prefix of the input), their offered
  /// rate, and how many segments the untraced run cuts them into, with a
  /// share of the closed-loop repetitions before each (the traced run: one
  /// segment, after the closed loop).
  std::size_t open_messages = 0;
  double rate = 0;
  std::size_t open_segments = 1;
  /// Threads of the sharded ParallelDetector that the traced run measures
  /// as the engine layer (0: the workload has no engine layer), and that
  /// engine's open-loop offered rate.
  std::size_t threads = 0;
  double engine_rate = 0;
  /// Quality floors checked against the planted ground truth.
  double min_precision = 0;
  double min_recall = 0;
};

/// Runs one workload in this process and returns its metrics. With
/// `traced` the metrics are the per-layer set, otherwise the end-to-end
/// set.
Result RunWorkload(const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

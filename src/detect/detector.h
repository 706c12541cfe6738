// The end-to-end real-time event detector: message stream -> quanta -> AKG
// deltas -> incremental SCP clusters -> ranked event reports. This is the
// system of the paper, assembled.

#ifndef SCPRT_DETECT_DETECTOR_H_
#define SCPRT_DETECT_DETECTOR_H_

#include <optional>
#include <unordered_set>
#include <vector>

#include "akg/akg_builder.h"
#include "akg/quantum_aggregate.h"
#include "cluster/maintenance.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "detect/cluster_sink.h"
#include "detect/config.h"
#include "detect/event.h"
#include "rank/rank_tracker.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "text/keyword_dictionary.h"

namespace scprt::detect {

/// Single-threaded streaming detector. Feed messages (or whole quanta); get
/// a QuantumReport each time a quantum closes.
class EventDetector {
 public:
  /// `dictionary` is optional and only consulted by the noun filter and by
  /// report formatting; pass nullptr to disable both (the noun filter is
  /// then skipped regardless of config.require_noun). The dictionary must
  /// outlive the detector.
  EventDetector(const DetectorConfig& config,
                const text::KeywordDictionary* dictionary);

  /// Streams one message; returns a report when it completed a quantum.
  std::optional<QuantumReport> Push(const stream::Message& message);

  /// Processes one pre-built quantum. The quantizer's next index is
  /// re-based past this quantum so subsequent Push()es continue the clock.
  QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  /// Same, but with the quantum's canonical aggregate supplied by the
  /// caller (the sharded engine builds and times it itself). `aggregate`
  /// must equal akg::AggregateQuantum(quantum); the report is then
  /// identical to ProcessQuantum(quantum).
  QuantumReport ProcessQuantumWithAggregate(
      const stream::Quantum& quantum,
      const akg::QuantumAggregate& aggregate);

  /// Installs the hook for the pure per-item hot loops here and in the AKG
  /// builder (signature refresh, EC batches, per-cluster snapshot cores).
  /// Reports are identical under any hook; nullptr restores the serial
  /// default. See engine/parallel_detector.h for the pooled setup.
  void set_parallel_for(ParallelForFn parallel_for);

  /// Attaches a sink that receives every newly reported cluster (with its
  /// spellings and deduped user sketch) inside ProcessQuantum, before the
  /// report is returned — so a durability fence taken after the quantum
  /// always covers what the sink saw. nullptr detaches. The sink must
  /// outlive the detector or be detached first; it does not participate in
  /// SaveState/RestoreState (re-fired events are the sink's to dedup).
  void set_cluster_sink(ClusterSink* sink) { cluster_sink_ = sink; }

  /// Runs a whole trace; returns every quantum report.
  std::vector<QuantumReport> Run(const std::vector<stream::Message>& trace);

  const cluster::ScpMaintainer& maintainer() const { return maintainer_; }
  const akg::AkgBuilder& akg() const { return akg_; }
  const DetectorConfig& config() const { return config_; }
  const rank::RankTracker& rank_tracker() const { return tracker_; }

  /// Ids of clusters that have ever been reported (first-report set).
  const std::unordered_set<ClusterId>& reported_ids() const {
    return reported_;
  }

  /// The partial quantum under accumulation (checkpoint inspection).
  const std::vector<stream::Message>& pending_messages() const {
    return quantizer_.pending();
  }

  /// Index the next emitted quantum will carry.
  QuantumIndex next_quantum_index() const { return quantizer_.next_index(); }

  /// Serializes every derived structure — AKG layer, graph + SCP clusters
  /// (with their ids and birth stamps), rank histories, first-report set
  /// and the quantizer clock — in canonical order. The config is NOT
  /// included; detect/snapshot_io.h frames config + state into the
  /// versioned checkpoint format. `quantizer_override` substitutes another
  /// quantizer's clock and pending messages (the sharded engine owns
  /// accumulation in its outer quantizer); nullptr uses this detector's.
  void SaveState(BinaryWriter& out,
                 const stream::Quantizer* quantizer_override = nullptr) const;

  /// Restores SaveState()'s encoding into this freshly constructed
  /// detector (same config required — the caller guarantees it by
  /// constructing from the checkpoint's own config section). Returns false
  /// on malformed input; the detector must then be discarded.
  bool RestoreState(BinaryReader& in);

  /// Engine restore support: moves the pending partial quantum out of the
  /// core detector (the engine's outer quantizer owns accumulation).
  std::vector<stream::Message> TakePendingMessages();

 private:
  /// Builds the ranked, filtered snapshot list for the current state.
  std::vector<EventSnapshot> SnapshotEvents(QuantumIndex now);

  /// Computes the tracker-independent fields of one cluster's snapshot
  /// (pure reads of the maintainer and AKG; safe to run concurrently for
  /// distinct clusters).
  EventSnapshot SnapshotCore(ClusterId id, const cluster::Cluster& cluster,
                             QuantumIndex now) const;

  /// True if the cluster passes the report filters (size, rank, noun).
  bool PassesFilters(const EventSnapshot& snapshot) const;

  /// Fires cluster_sink_ for every newly reported event in `events`.
  void EmitToSink(const std::vector<EventSnapshot>& events);

  DetectorConfig config_;
  ParallelForFn parallel_for_ = SerialFor;
  ClusterSink* cluster_sink_ = nullptr;
  const text::KeywordDictionary* dictionary_;
  cluster::ScpMaintainer maintainer_;
  akg::AkgBuilder akg_;
  // ProcessQuantum's aggregate, rebuilt in place every quantum.
  akg::QuantumAggregate aggregate_;
  stream::Quantizer quantizer_;
  rank::RankTracker tracker_;
  std::unordered_set<ClusterId> reported_;
};

}  // namespace scprt::detect

#endif  // SCPRT_DETECT_DETECTOR_H_

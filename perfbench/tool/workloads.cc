#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "akg/quantum_aggregate.h"
#include "detect/config.h"
#include "detect/detector.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "ingest/durable.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "openloop.h"
#include "stats.h"
#include "store/event_indexer.h"
#include "store/lsh_index.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "stream/trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using scprt::detect::QuantumReport;
using scprt::stream::Message;

double NowSeconds() {
  return static_cast<double>(scprt::obs::MonotonicNanos()) / 1e9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c, d);
  return buf;
}

scprt::detect::DetectorConfig NominalConfig(std::size_t quantum_size) {
  scprt::detect::DetectorConfig config;  // Table 2 nominal values
  config.quantum_size = quantum_size;
  return config;
}

std::vector<std::uint64_t> Digests(const std::vector<QuantumReport>& reports) {
  std::vector<std::uint64_t> digests;
  digests.reserve(reports.size());
  for (const QuantumReport& report : reports) {
    digests.push_back(scprt::detect::ReportDigest(report));
  }
  return digests;
}

bool WriteDigests(const std::vector<std::uint64_t>& digests,
                  const std::string& path) {
  std::ofstream out(path);
  for (const std::uint64_t d : digests) out << std::hex << d << "\n";
  return static_cast<bool>(out);
}

std::optional<std::vector<std::uint64_t>> ReadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<std::uint64_t> digests;
  std::uint64_t d = 0;
  while (in >> std::hex >> d) digests.push_back(d);
  return digests;
}

// Compares a pass's digests against a reference; every message of a
// quantum that differs (or is missing) counts as failed.
std::uint64_t CheckDigests(const std::vector<std::uint64_t>& got,
                           const std::vector<std::uint64_t>& want,
                           std::size_t quantum_size, const std::string& what,
                           Result& result) {
  std::size_t bad = 0;
  const std::size_t n = std::max(got.size(), want.size());
  for (std::size_t q = 0; q < n; ++q) {
    if (q >= got.size() || q >= want.size() || got[q] != want[q]) ++bad;
  }
  if (bad > 0) {
    result.Problem(what + ": " + std::to_string(bad) + " of " +
                   std::to_string(n) + " quantum reports differ");
  }
  return bad * quantum_size;
}

std::vector<std::uint64_t> Prefix(const std::vector<std::uint64_t>& digests,
                                  std::size_t n) {
  return {digests.begin(),
          digests.begin() + static_cast<std::ptrdiff_t>(
                                std::min(n, digests.size()))};
}

// Set-ups before the measured passes. An untraced run makes the rest of
// options.setup_reps after them (and after reading the peak RSS), so that
// setup_s samples the shared machine at both ends of the run.
std::size_t FirstSetups(const WorkloadOptions& options) {
  return options.traced ? options.setup_reps : (options.setup_reps + 1) / 2;
}

// The open loop covers a prefix of the input in whole quanta, split into
// segments of whole quanta.
bool OpenLoopFits(const WorkloadOptions& options, std::size_t total,
                  Result& result) {
  const std::size_t unit = options.open_segments * options.quantum_size;
  if (options.open_messages <= total && options.open_messages % unit == 0) {
    return true;
  }
  result.Problem("the open loop must be a prefix of the input cut into " +
                 std::to_string(options.open_segments) +
                 " segments of whole quanta");
  return false;
}

// Registry readings over one interval.
class RegistryWindow {
 public:
  RegistryWindow() : before_(scprt::obs::Registry::Default().SnapshotAll()) {}

  void Close() { after_ = scprt::obs::Registry::Default().SnapshotAll(); }

  scprt::obs::HistogramSnapshot Histogram(const char* name) const {
    const auto* a = after_.FindHistogram(name);
    if (a == nullptr) return {};
    const auto* b = before_.FindHistogram(name);
    return b == nullptr ? *a : HistogramDelta(*b, *a);
  }
  double SumSeconds(const char* name) const {
    return static_cast<double>(Histogram(name).sum) / 1e9;
  }
  double P99Millis(const char* name) const {
    const auto h = Histogram(name);
    return h.count == 0 ? 0 : h.Percentile(0.99) / 1e6;
  }
  double Counter(const char* name) const {
    return static_cast<double>(after_.CounterValue(name) -
                               before_.CounterValue(name));
  }

 private:
  scprt::obs::RegistrySnapshot before_;
  scprt::obs::RegistrySnapshot after_;
};

// Tracing on or off for a pass: registry stage timers and the span tracer
// together.
void SetTracing(bool on) {
  scprt::obs::SetEnabled(on);
  if (on) {
    scprt::obs::Tracer::Default().Enable(std::size_t{1} << 17);
  } else {
    scprt::obs::Tracer::Default().Disable();
  }
}

// Per-layer counters the benchmark gathers around the public calls of
// one traced pass.
struct LayerTally {
  double aggregate_s = 0;             // akg::AggregateQuantum (serial split)
  std::vector<double> process_ms;     // per-quantum detect time
  double pairs_screened = 0;
  double ec_computed = 0;
  double edges_sum = 0;
  double bursty_sum = 0;
  double imbalance_sum = 0;
  std::size_t quanta = 0;
  std::size_t peak_active_keywords = 0;
  std::size_t peak_akg_nodes = 0;
  std::size_t peak_tracked_clusters = 0;

  void Observe(const scprt::detect::EventDetector& core,
               const QuantumReport& report) {
    const auto& stats = core.akg().last_stats();
    pairs_screened += static_cast<double>(stats.pairs_screened);
    ec_computed += static_cast<double>(stats.ec_computed);
    edges_sum += static_cast<double>(report.akg_edges);
    bursty_sum += static_cast<double>(report.bursty_keywords);
    static scprt::obs::Gauge* const imbalance =
        scprt::obs::Registry::Default().GetGauge("engine.shard_imbalance");
    imbalance_sum += imbalance->Value();
    peak_active_keywords = std::max(peak_active_keywords,
                                    core.akg().id_sets().active_keywords());
    peak_akg_nodes = std::max(peak_akg_nodes, stats.akg_nodes);
    peak_tracked_clusters =
        std::max(peak_tracked_clusters, core.rank_tracker().tracked());
    ++quanta;
  }

  double PerQuantum(double sum) const {
    return quanta > 0 ? sum / static_cast<double>(quanta) : 0;
  }
};

// The akg, cluster and rank layers of one traced pass.
void SetDetectorLayers(const scprt::detect::EventDetector& core,
                       const LayerTally& tally, const RegistryWindow& reg,
                       Result& result) {
  const auto& m = core.maintainer().stats();
  result.Set("akg.aggregate_s", tally.aggregate_s);
  result.Set("akg.sketch_ingest_s", reg.SumSeconds("akg.sketch_ingest_ns"));
  result.Set("akg.signature_refresh_s",
             reg.SumSeconds("akg.signature_refresh_ns"));
  result.Set("akg.pairs_screened", tally.pairs_screened);
  result.Set("akg.ec_computed", tally.ec_computed);
  result.Set("akg.ec_pass_ratio", tally.pairs_screened > 0
                                      ? tally.ec_computed / tally.pairs_screened
                                      : 0);
  result.Set("akg.edge_yield",
             tally.ec_computed > 0
                 ? static_cast<double>(m.edges_added) / tally.ec_computed
                 : 0);
  result.Set("akg.edges_mean", tally.PerQuantum(tally.edges_sum));
  result.Set("akg.bursty_mean", tally.PerQuantum(tally.bursty_sum));
  result.Set("akg.active_keywords",
             static_cast<double>(tally.peak_active_keywords));
  // Signature entries the window holds for AKG nodes: p per node, at the
  // peak node count.
  result.Set("akg.sketch_size",
             static_cast<double>(tally.peak_akg_nodes * core.akg().sketch_size()));
  result.Set("cluster.edges_added", static_cast<double>(m.edges_added));
  result.Set("cluster.edges_removed", static_cast<double>(m.edges_removed));
  result.Set("cluster.merges", static_cast<double>(m.cluster_merges));
  result.Set("cluster.splits", static_cast<double>(m.cluster_splits));
  result.Set("cluster.reclosure_edges_scanned",
             static_cast<double>(m.reclosure_edges_scanned));
  result.Set("cluster.short_cycles_found",
             static_cast<double>(m.short_cycles_found));
  result.Set("rank.tracked_clusters",
             static_cast<double>(tally.peak_tracked_clusters));
}

// The sharded engine's stages of one traced pass.
void SetEngineStages(const LayerTally& tally, const RegistryWindow& reg,
                     Result& result) {
  result.Set("engine.route_s", reg.SumSeconds("engine.route_ns"));
  result.Set("engine.reduce_s", reg.SumSeconds("engine.reduce_ns"));
  result.Set("engine.merge_s", reg.SumSeconds("engine.merge_ns"));
  result.Set("engine.shard_detect_s", reg.SumSeconds("engine.shard_detect_ns"));
  result.Set("engine.shard_imbalance", tally.PerQuantum(tally.imbalance_sum));
}

void SetZero(std::initializer_list<const char*> names, Result& result) {
  for (const char* name : names) result.Set(name, 0);
}

// Engine-layer metrics of a workload that runs no sharded engine pool.
void SetNoEngineLayers(Result& result) {
  SetZero({"engine.route_s", "engine.reduce_s", "engine.merge_s",
           "engine.shard_detect_s", "engine.shard_imbalance",
           "engine.throughput_msg_s", "engine.report_latency_p99_ms"},
          result);
}

void SetProcessQuantum(double sum_s, double p50_ms, double p99_ms,
                       double stages_s, Result& result) {
  result.Set("detect.process_quantum_s", sum_s);
  result.Set("detect.process_quantum_p50_ms", p50_ms);
  result.Set("detect.process_quantum_p99_ms", p99_ms);
  // The stage ledger: 1 - (stage histograms / measured quantum time).
  result.Set("detect.unaccounted_frac",
             sum_s > 0 ? 1.0 - stages_s / sum_s : 0);
}

struct ClosedRep {
  double wall_s = 0;
  double cpu_s = 0;
  std::size_t messages = 0;
  std::vector<QuantumReport> reports;

  double rate() const { return static_cast<double>(messages) / wall_s; }
};

std::vector<double> Rates(const std::vector<ClosedRep>& reps) {
  std::vector<double> rates;
  for (const ClosedRep& rep : reps) rates.push_back(rep.rate());
  return rates;
}

// Sets the end-to-end throughput/CPU metrics from the untraced reps: all
// their messages over all their time. The reps are spread over the run,
// so the totals average the shared machine's slow and fast spells, which
// last seconds to minutes; that is steadier than any one rep or a median
// of a few.
void SetClosedLoopMetrics(const std::vector<ClosedRep>& reps,
                          Result& result) {
  double messages = 0, wall_s = 0, cpu_s = 0;
  for (const ClosedRep& rep : reps) {
    messages += static_cast<double>(rep.messages);
    wall_s += rep.wall_s;
    cpu_s += rep.cpu_s;
  }
  result.Set("throughput_msg_s", messages / wall_s);
  result.Set("cpu_us_per_msg", cpu_s * 1e6 / messages);
  const Quartiles q = QuartilesOf(Rates(reps));
  result.Note(Fmt("closed loop: %.0f reps of %.0f messages, throughput per "
                  "rep q1 %.0f / median %.0f",
                  static_cast<double>(reps.size()),
                  static_cast<double>(reps.front().messages), q.q1,
                  q.median) +
              Fmt(" / q3 %.0f msg/s", q.q3));
}

// Report latency of an open-loop pass: the end-to-end run reports its p50,
// the traced run its p99 (which must have kMinBeyond quanta beyond it).
void SetLatencyMetrics(const OpenLoopResult& open, double rate, bool traced,
                       Result& result) {
  const TailReading p50 = ReadPercentile(open.latency_ms, 0.50);
  const TailReading p99 = ReadPercentile(open.latency_ms, 0.99);
  const TailReading top = HighestSupportedPercentile(open.latency_ms);
  if (!p99.supported) {
    result.Problem("open loop: p99 needs >= 10 quanta beyond it, have " +
                   std::to_string(p99.beyond));
  }
  result.Set(traced ? "report_latency_p99_ms" : "report_latency_p50_ms",
             traced ? p99.value : p50.value);
  result.Note(Fmt("open loop at %.0f msg/s: %.0f quanta; p50 %.3f ms, ",
                  rate, static_cast<double>(p50.samples), p50.value) +
              Fmt("p99 %.3f ms (%.0f beyond), p%.1f",
                  p99.value, static_cast<double>(p99.beyond), top.q * 100) +
              Fmt(" %.3f ms (%.0f beyond); took %.2f s", top.value,
                  static_cast<double>(top.beyond), open.wall_s));
}

void CheckQuality(const std::vector<QuantumReport>& reports,
                  const scprt::stream::EventScript& script,
                  const WorkloadOptions& options, Result& result) {
  const scprt::eval::GroundTruthMatcher matcher(script);
  const scprt::eval::RunMetrics quality =
      scprt::eval::EvaluateRun(reports, matcher, options.quantum_size);
  if (!options.traced) {
    result.Set("precision", quality.precision);
    result.Set("recall", quality.recall);
  }
  result.Note(Fmt("quality: precision %.4f recall %.4f (%.0f clusters, "
                  "%.0f planted events)",
                  quality.precision, quality.recall,
                  static_cast<double>(quality.clusters_reported),
                  static_cast<double>(quality.events_planted)));
  if (quality.precision < options.min_precision ||
      quality.recall < options.min_recall) {
    result.Problem(Fmt("quality below floor: precision %.4f (floor %.2f), "
                       "recall %.4f (floor %.2f)",
                       quality.precision, options.min_precision,
                       quality.recall, options.min_recall));
  }
}

double LagP99(const OpenLoopResult& open) {
  return Percentile({open.lag_ms.begin(), open.lag_ms.end()}, 0.99);
}

// Median CPU share of the untraced reps: CPU seconds / (threads x wall).
double CpuUtilization(const std::vector<ClosedRep>& reps, double threads) {
  std::vector<double> share;
  for (const ClosedRep& rep : reps) {
    share.push_back(rep.cpu_s / (threads * rep.wall_s));
  }
  return Median(share);
}

// Tracing overhead from the untraced and traced closed-loop reps.
void SetTracingOverhead(const std::vector<ClosedRep>& untraced,
                        const std::vector<double>& traced_rates,
                        Result& result) {
  const double plain = Median(Rates(untraced));
  const double traced = Median(traced_rates);
  result.Set("obs.tracing_overhead_frac", (plain - traced) / plain);
  result.Note(Fmt("closed loop: %.0f untraced reps at median %.0f msg/s, "
                  "%.0f traced reps at median %.0f msg/s",
                  static_cast<double>(untraced.size()), plain,
                  static_cast<double>(traced_rates.size()), traced));
}

// Closed-loop repetitions, each followed by a traced one when tracing.
// The budget is spent in slices, between the open loop's segments, so the
// repetitions sample the whole run; open-loop time does not count against
// it. `pass(traced, layers)` runs one repetition, accounts and checks it,
// and fills `layers` when given (the first traced repetition only).
class ClosedLoop {
 public:
  using PassFn = std::function<ClosedRep(bool traced, Result* layers)>;

  ClosedLoop(const WorkloadOptions& options, std::size_t slices,
             Result& result, PassFn pass)
      : traced_(options.traced),
        slice_s_(options.closed_seconds / static_cast<double>(slices)),
        result_(&result),
        pass_(std::move(pass)) {}

  // Runs repetitions until the budget of the slices so far is spent (at
  // least one repetition in the first slice).
  void RunSlice() {
    budget_s_ += slice_s_;
    while (untraced.empty() || spent_s_ < budget_s_) {
      const double t0 = NowSeconds();
      ClosedRep rep = pass_(false, nullptr);
      rep.reports.clear();
      untraced.push_back(std::move(rep));
      if (traced_) {
        SetTracing(true);
        const ClosedRep traced =
            pass_(true, traced_rates.empty() ? result_ : nullptr);
        SetTracing(false);
        traced_rates.push_back(traced.rate());
      }
      spent_s_ += NowSeconds() - t0;
    }
  }

  std::vector<ClosedRep> untraced;
  std::vector<double> traced_rates;

 private:
  bool traced_;
  double slice_s_;
  double budget_s_ = 0;
  double spent_s_ = 0;
  Result* result_;
  PassFn pass_;
};

// ------------------------------------------------ Trace workloads ----

// The serial EventDetector (both trace workloads) or the sharded
// ParallelDetector (the engine layer of es_serial's traced run), driven
// through Push (untraced) or the split quantum calls (traced).
class TraceEngine {
 public:
  TraceEngine(const WorkloadOptions& options,
              const scprt::text::KeywordDictionary& dictionary,
              bool sharded) {
    const auto config = NominalConfig(options.quantum_size);
    if (sharded) {
      scprt::engine::ParallelDetectorConfig engine_config;
      engine_config.detector = config;
      engine_config.threads = options.threads;
      sharded_ = std::make_unique<scprt::engine::ParallelDetector>(
          engine_config, &dictionary);
    } else {
      serial_ = std::make_unique<scprt::detect::EventDetector>(config,
                                                               &dictionary);
    }
  }

  std::optional<QuantumReport> Push(const Message& message) {
    return serial_ ? serial_->Push(message) : sharded_->Push(message);
  }

  // Traced path: the caller's quantizer cut the quantum; the serial engine
  // runs akg::AggregateQuantum and ProcessQuantumWithAggregate as separate
  // calls (report-identical to Push), the sharded one ProcessQuantum.
  QuantumReport ProcessTraced(const scprt::stream::Quantum& quantum,
                              LayerTally& tally) {
    QuantumReport report;
    if (serial_) {
      const double t0 = NowSeconds();
      scprt::akg::QuantumAggregate aggregate;
      {
        scprt::obs::ScopedSpan span("bench.aggregate_quantum");
        aggregate = scprt::akg::AggregateQuantum(quantum);
      }
      const double t1 = NowSeconds();
      {
        scprt::obs::ScopedSpan span("bench.process_quantum");
        report = serial_->ProcessQuantumWithAggregate(quantum, aggregate);
      }
      const double t2 = NowSeconds();
      tally.aggregate_s += t1 - t0;
      tally.process_ms.push_back((t2 - t1) * 1e3);
    } else {
      const double t1 = NowSeconds();
      {
        scprt::obs::ScopedSpan span("bench.process_quantum");
        report = sharded_->ProcessQuantum(quantum);
      }
      tally.process_ms.push_back((NowSeconds() - t1) * 1e3);
    }
    tally.Observe(core(), report);
    return report;
  }

  const scprt::detect::EventDetector& core() const {
    return serial_ ? *serial_ : sharded_->core();
  }

 private:
  std::unique_ptr<scprt::detect::EventDetector> serial_;
  std::unique_ptr<scprt::engine::ParallelDetector> sharded_;
};

struct Pass {
  ClosedRep closed;
  OpenLoopResult open;
};

// One pass over the first `count` messages with a fresh engine: closed
// loop when `rate` is 0, open loop otherwise (in segments of `segment`
// messages with `gap()` between them; 0 is one segment). Traced passes cut
// quanta themselves and call the split API; when `layers` is given they
// record the layer metrics before the engine goes away (the detector's
// layers for the serial engine, the engine stages for the sharded one).
Pass RunTracePass(const WorkloadOptions& options,
                  const scprt::stream::SyntheticTrace& trace, bool sharded,
                  std::size_t count, double rate, bool traced,
                  Result* layers, std::size_t segment = 0,
                  const std::function<void()>& gap = [] {}) {
  Pass pass;
  LayerTally tally;
  TraceEngine engine(options, trace.dictionary, sharded);
  scprt::stream::Quantizer quantizer(options.quantum_size);
  auto& reports = pass.closed.reports;
  reports.reserve(count / options.quantum_size + 1);
  auto push = [&](std::size_t i) {
    const Message& message = trace.messages[i];
    if (!traced) {
      auto report = engine.Push(message);
      if (!report) return false;
      reports.push_back(*std::move(report));
      return true;
    }
    auto quantum = quantizer.Push(message);
    if (!quantum) return false;
    reports.push_back(engine.ProcessTraced(*quantum, tally));
    return true;
  };
  pass.closed.messages = count;
  RegistryWindow window;
  if (rate > 0) {
    pass.open =
        RunOpenLoop(count, rate, segment > 0 ? segment : count, push, gap);
  } else {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    for (std::size_t i = 0; i < count; ++i) push(i);
    pass.closed.wall_s = NowSeconds() - t0;
    pass.closed.cpu_s = ProcessCpuSeconds() - cpu0;
  }
  window.Close();
  if (layers == nullptr) return pass;
  if (sharded) {
    SetEngineStages(tally, window, *layers);
    return pass;
  }
  SetDetectorLayers(engine.core(), tally, window, *layers);
  double sum_ms = 0;
  for (const double ms : tally.process_ms) sum_ms += ms;
  const double stages = window.SumSeconds("akg.sketch_ingest_ns") +
                        window.SumSeconds("akg.signature_refresh_ns");
  SetProcessQuantum(sum_ms / 1e3, Percentile(tally.process_ms, 0.50),
                    Percentile(tally.process_ms, 0.99), stages, *layers);
  return pass;
}

// Quanta of the sharded engine's open-loop pass: the fewest whose p99 has
// kMinBeyond quanta beyond it.
constexpr std::size_t kEngineOpenQuanta = 1000;

// The engine layer of the traced run: the sharded ParallelDetector on the
// same trace. An untraced closed pass gives its throughput and CPU
// utilization, a traced one its stage histograms and shard imbalance, and
// an untraced open-loop window at options.engine_rate its report latency.
// Every pass must match the serial reference.
void RunEngineLayers(const WorkloadOptions& options,
                     const scprt::stream::SyntheticTrace& trace,
                     const std::vector<std::uint64_t>& reference,
                     Result& result) {
  const std::size_t delta = options.quantum_size;
  const std::size_t count = trace.messages.size();
  const Pass plain =
      RunTracePass(options, trace, true, count, 0, false, nullptr);
  SetTracing(true);
  const Pass traced =
      RunTracePass(options, trace, true, count, 0, true, &result);
  SetTracing(false);
  const std::size_t open_count =
      std::min(trace.messages.size(), kEngineOpenQuanta * delta);
  const Pass open = RunTracePass(options, trace, true, open_count,
                                 options.engine_rate, false, nullptr);
  result.attempted += 2 * count + open_count;
  const auto want = Prefix(reference, count / delta);
  result.failed += CheckDigests(Digests(plain.closed.reports), want, delta,
                                "sharded engine vs serial reference", result);
  result.failed += CheckDigests(Digests(traced.closed.reports), want, delta,
                                "traced sharded engine vs serial reference",
                                result);
  result.failed += CheckDigests(Digests(open.closed.reports),
                                Prefix(reference, open_count / delta), delta,
                                "sharded open-loop pass vs serial reference",
                                result);
  const TailReading p99 = ReadPercentile(open.open.latency_ms, 0.99);
  result.Set("engine.throughput_msg_s", plain.closed.rate());
  result.Set("engine.report_latency_p99_ms", p99.value);
  result.Set("engine.cpu_utilization",
             plain.closed.cpu_s / (static_cast<double>(options.threads) *
                                   plain.closed.wall_s));
  result.Note(Fmt("sharded engine at %.0f threads: %.0f msg/s closed loop; "
                  "open loop at %.0f msg/s p99 %.3f ms",
                  static_cast<double>(options.threads), plain.closed.rate(),
                  options.engine_rate, p99.value) +
              Fmt(" over %.0f quanta (%.0f beyond)",
                  static_cast<double>(p99.samples),
                  static_cast<double>(p99.beyond)));
}

Result RunTraceWorkload(const WorkloadOptions& options) {
  Result result;
  const fs::path root(options.dir);
  const std::size_t delta = options.quantum_size;
  SetTracing(false);
  const auto reference = ReadDigests((root / kReferenceFile).string());
  if (!reference || reference->empty()) {
    result.Problem("missing reference digests");
    return result;
  }

  // Setup: inputs on disk -> first message accepted, several times; the
  // run keeps the last trace loaded here.
  const std::string path = (root / kTraceFile).string();
  std::vector<double> setup_s, load_s;
  auto set_up = [&]() -> std::unique_ptr<scprt::stream::SyntheticTrace> {
    auto loaded = std::make_unique<scprt::stream::SyntheticTrace>();
    const double t0 = NowSeconds();
    if (!scprt::stream::ReadTraceFile(path, *loaded) ||
        loaded->messages.empty()) {
      result.Problem("cannot read " + path);
      return nullptr;
    }
    const double t1 = NowSeconds();
    auto engine = std::make_unique<TraceEngine>(options, loaded->dictionary,
                                                /*sharded=*/false);
    engine->Push(loaded->messages.front());
    const double t2 = NowSeconds();
    setup_s.push_back(t2 - t0);
    load_s.push_back(t1 - t0);
    return loaded;
  };
  std::unique_ptr<scprt::stream::SyntheticTrace> trace;
  for (std::size_t r = 0; r < FirstSetups(options); ++r) {
    trace.reset();  // one trace in memory at a time: it counts in peak RSS
    trace = set_up();
    if (trace == nullptr) return result;
  }
  const std::size_t total = trace->messages.size();
  if (total != reference->size() * delta ||
      !OpenLoopFits(options, total, result)) {
    result.Problem("input size does not fit the reference or the passes");
    return result;
  }

  // Closed loop over the whole input; untraced reps are checked against
  // the reference (the first is also scored against the planted truth),
  // traced split-call reps against the untraced.
  const std::size_t segments = options.traced ? 1 : options.open_segments;
  bool scored = false;
  ClosedLoop closed(options, segments, result,
                    [&](bool traced, Result* layers) {
                      Pass pass = RunTracePass(options, *trace, false, total,
                                               0, traced, layers);
                      result.attempted += total;
                      result.failed += CheckDigests(
                          Digests(pass.closed.reports), *reference, delta,
                          traced ? "traced split-call pass vs untraced pass"
                                 : "closed-loop pass vs reference",
                          result);
                      if (!scored) {
                        CheckQuality(pass.closed.reports, trace->script,
                                     options, result);
                        scored = true;
                      }
                      return std::move(pass.closed);
                    });
  closed.RunSlice();

  // Open loop at the workload's fixed offered rate, in segments with the
  // rest of the closed loop's slices between them.
  SetTracing(options.traced);
  const Pass open = RunTracePass(
      options, *trace, false, options.open_messages, options.rate,
      options.traced, nullptr, options.open_messages / segments,
      [&] { closed.RunSlice(); });
  SetTracing(false);
  result.attempted += options.open_messages;
  result.failed += CheckDigests(Digests(open.closed.reports),
                                Prefix(*reference, options.open_messages / delta),
                                delta, "open-loop pass vs reference", result);
  const double peak_rss = PeakRssMb();

  SetLatencyMetrics(open.open, options.rate, options.traced, result);
  if (!options.traced) {
    while (setup_s.size() < options.setup_reps && set_up() != nullptr) {
    }
    SetClosedLoopMetrics(closed.untraced, result);
    result.Set("peak_rss_mb", peak_rss);
    result.Set("setup_s", Median(setup_s));
    return result;
  }
  result.Set("stream.trace_load_s", Median(load_s));
  SetZero({"ingest.source_busy_s", "ingest.tokenize_s",
           "ingest.dispatch_stall_p99_ms", "ingest.peak_queue_depth",
           "ingest.shed", "ingest.malformed", "durability.commits",
           "durability.commit_s", "durability.commit_bytes",
           "wal.append_p99_ms", "wal.segment_cut_p99_ms",
           "durability.commit_failures", "store.on_cluster_s",
           "store.events_indexed", "store.page_write"},
          result);
  result.Set("text.dictionary_keywords",
             static_cast<double>(trace->dictionary.size()));
  result.Set("loadgen.lag_p99_ms", LagP99(open.open));
  SetTracingOverhead(closed.untraced, closed.traced_rates, result);
  if (options.threads > 0) {
    RunEngineLayers(options, *trace, *reference, result);
  } else {
    SetNoEngineLayers(result);
    result.Set("engine.cpu_utilization", CpuUtilization(closed.untraced, 1));
  }
  return result;
}

// ----------------------------------------------- Ingest workload ----

// Holds each record back until its due time (open loop) and, when timed,
// measures the time spent inside the wrapped source's Next().
class PacedSource final : public scprt::ingest::MessageSource {
 public:
  PacedSource(scprt::ingest::MessageSource& inner, std::uint64_t limit,
              Schedule* schedule, bool timed)
      : inner_(&inner), limit_(limit), schedule_(schedule), timed_(timed) {}

  bool Next(scprt::ingest::RawRecord& out) override {
    if (consumed_ >= limit_) return false;
    if (schedule_ != nullptr) schedule_->WaitUntilDue(consumed_);
    if (consumed_ == 0) first_ns_ = scprt::obs::MonotonicNanos();
    bool ok = false;
    if (timed_) {
      scprt::obs::ScopedSpan span("bench.source_next");
      const std::int64_t t0 = scprt::obs::MonotonicNanos();
      ok = inner_->Next(out);
      busy_ns_ += scprt::obs::MonotonicNanos() - t0;
    } else {
      ok = inner_->Next(out);
    }
    if (ok) ++consumed_;
    return ok;
  }
  std::uint64_t malformed_count() const override {
    return inner_->malformed_count();
  }
  scprt::ingest::SourcePosition Position() const override {
    return inner_->Position();
  }

  /// Records up to `limit` may pass (one open-loop segment at a time).
  void set_limit(std::uint64_t limit) { limit_ = limit; }
  std::int64_t first_ns() const { return first_ns_; }
  double busy_s() const { return static_cast<double>(busy_ns_) / 1e9; }

 private:
  scprt::ingest::MessageSource* inner_;
  std::uint64_t limit_;
  Schedule* schedule_;
  bool timed_;
  std::uint64_t consumed_ = 0;
  std::int64_t first_ns_ = 0;
  std::int64_t busy_ns_ = 0;
};

// Counts (and, when timed, times) the event store's write path.
class TimedClusterSink final : public scprt::detect::ClusterSink {
 public:
  TimedClusterSink(scprt::detect::ClusterSink& inner, bool timed)
      : inner_(&inner), timed_(timed) {}

  void OnCluster(const scprt::detect::ReportedCluster& cluster) override {
    ++calls_;
    if (!timed_) {
      inner_->OnCluster(cluster);
      return;
    }
    scprt::obs::ScopedSpan span("bench.store_on_cluster");
    const std::int64_t t0 = scprt::obs::MonotonicNanos();
    inner_->OnCluster(cluster);
    busy_ns_ += scprt::obs::MonotonicNanos() - t0;
  }

  std::uint64_t calls() const { return calls_; }
  double busy_s() const { return static_cast<double>(busy_ns_) / 1e9; }

 private:
  scprt::detect::ClusterSink* inner_;
  bool timed_;
  std::uint64_t calls_ = 0;
  std::int64_t busy_ns_ = 0;
};

// JSONL source -> 2 tokenizer workers -> inline engine -> WAL backend, with
// the event store attached as the engine's cluster sink. Members are
// declared so the sink outlives nothing that still calls it.
struct IngestRig {
  std::unique_ptr<scprt::ingest::JsonlSource> source;
  std::unique_ptr<scprt::store::LshIndex> index;
  std::unique_ptr<scprt::store::EventIndexer> indexer;
  std::unique_ptr<TimedClusterSink> sink;
  std::unique_ptr<scprt::ingest::DurableIngest> session;
};

std::unique_ptr<IngestRig> MakeIngestRig(const WorkloadOptions& options,
                                         const fs::path& pass_dir,
                                         bool timed, Result& result) {
  auto rig = std::make_unique<IngestRig>();
  const std::string jsonl = (fs::path(options.dir) / kJsonlFile).string();
  rig->source = std::make_unique<scprt::ingest::JsonlSource>(jsonl);
  if (!rig->source->ok()) {
    result.Problem("cannot open " + jsonl);
    return nullptr;
  }
  scprt::ingest::IngestConfig ingest_config;
  ingest_config.workers = 2;
  scprt::engine::ParallelDetectorConfig engine_config;
  engine_config.detector = NominalConfig(options.quantum_size);
  engine_config.threads = 1;
  scprt::ingest::DurableConfig durable;
  durable.directory = (pass_dir / "wal").string();
  durable.backend = scprt::durability::BackendKind::kWal;
  durable.fsync = scprt::durability::FsyncLevel::kNone;
  durable.checkpoint_quanta = 8;
  rig->session = std::make_unique<scprt::ingest::DurableIngest>(
      ingest_config, engine_config, durable);

  const fs::path store_dir = pass_dir / "store";
  std::error_code ec;
  fs::create_directories(store_dir, ec);
  scprt::store::LshOptions store_options;
  store_options.sync = false;  // fsync'd durability is out of scope
  scprt::durability::Error error;
  rig->index =
      scprt::store::LshIndex::Create(store_dir.string(), store_options, &error);
  if (rig->index == nullptr) {
    result.Problem("cannot create the event store: " + error.ToString());
    return nullptr;
  }
  rig->indexer = std::make_unique<scprt::store::EventIndexer>(rig->index.get());
  rig->sink = std::make_unique<TimedClusterSink>(*rig->indexer, timed);
  rig->session->engine().set_cluster_sink(rig->sink.get());
  return rig;
}

// Everything one ingest pass reports.
struct IngestPass {
  Pass pass;
  scprt::ingest::IngestSnapshot snapshot;
  std::uint64_t commit_failures = 0;
  std::uint64_t store_calls = 0;
  std::uint64_t store_indexed = 0;
  double dispatch_stall_p99_ms = 0;
  /// Spellings of every keyword id the pass's reports mention.
  std::unordered_map<scprt::KeywordId, std::string> spellings;
};

// Operation accounting of one ingest pass: records offered, durable
// commits and store inserts; shed and malformed records and failed
// commits and inserts count as failed.
void AccountIngestPass(const IngestPass& pass, std::size_t count,
                       Result& result) {
  const auto& s = pass.snapshot;
  result.attempted +=
      count + s.commits + pass.commit_failures + pass.store_calls;
  const std::uint64_t bad = s.shed + s.malformed + pass.commit_failures +
                            (pass.store_calls - pass.store_indexed);
  if (s.messages_emitted + s.shed + s.malformed < count) {
    result.Problem("ingest pass lost records");
    result.failed += count - std::min<std::uint64_t>(count, s.messages_emitted);
  }
  if (bad > 0) {
    result.Problem("ingest pass: " + std::to_string(bad) +
                   " shed/malformed records or failed commits/inserts");
  }
  result.failed += bad;
}

// Folds one Run's pipeline counters (they restart at every Run) into the
// pass's totals.
void Accumulate(const scprt::ingest::IngestSnapshot& run,
                scprt::ingest::IngestSnapshot& total) {
  total.malformed += run.malformed;
  total.shed += run.shed;
  total.messages_emitted += run.messages_emitted;
  total.tokenize_ns += run.tokenize_ns;
  total.commits += run.commits;
  total.commit_bytes += run.commit_bytes;
  total.commit_ns += run.commit_ns;
  total.peak_queue_depth = std::max(total.peak_queue_depth,
                                    run.peak_queue_depth);
}

// One ingest pass over the first `count` records with a fresh session:
// closed loop when `rate` is 0, open loop otherwise (one Run per segment
// of `segment` records, with `gap()` between them; 0 is one segment).
IngestPass RunIngestPass(const WorkloadOptions& options,
                         const fs::path& pass_dir, std::size_t count,
                         double rate, bool traced, Result& result,
                         Result* layers, std::size_t segment = 0,
                         const std::function<void()>& gap = [] {}) {
  IngestPass out;
  auto rig = MakeIngestRig(options, pass_dir, traced, result);
  if (rig == nullptr) return out;
  scprt::ingest::DurableIngest& session = *rig->session;
  Schedule schedule(rate > 0 ? rate : 1, rate > 0 ? count : 0);
  PacedSource paced(*rig->source, count, rate > 0 ? &schedule : nullptr,
                    traced);
  LayerTally tally;
  auto& reports = out.pass.closed.reports;
  reports.reserve(count / options.quantum_size + 1);
  std::int64_t last_report_ns = 0;
  const std::size_t delta = options.quantum_size;
  auto on_report = [&](const QuantumReport& report) {
    if (rate > 0) {
      const auto closing =
          static_cast<std::uint64_t>(report.quantum + 1) * delta - 1;
      out.pass.open.latency_ms.push_back(schedule.MillisSinceDue(closing));
    }
    if (traced) tally.Observe(session.engine().core(), report);
    reports.push_back(report);
    last_report_ns = scprt::obs::MonotonicNanos();
  };

  RegistryWindow window;
  const double cpu0 = ProcessCpuSeconds();
  const std::size_t step = rate > 0 && segment > 0 ? segment : count;
  for (std::size_t begin = 0; begin < count; begin += step) {
    if (begin > 0) gap();
    const std::size_t end = std::min(count, begin + step);
    paced.set_limit(end);
    if (rate > 0) schedule.StartAt(begin);
    const double t0 = NowSeconds();
    const auto snapshot =
        session.Run(paced, on_report, /*flush_partial=*/end == count);
    out.pass.open.wall_s += NowSeconds() - t0;
    if (!snapshot) {
      result.Problem("ingest run refused to start");
      return out;
    }
    Accumulate(*snapshot, out.snapshot);
  }
  const double cpu1 = ProcessCpuSeconds();
  window.Close();
  out.pass.closed.messages = count;
  out.pass.closed.wall_s =
      static_cast<double>(last_report_ns - paced.first_ns()) / 1e9;
  out.pass.closed.cpu_s = cpu1 - cpu0;
  out.pass.open.lag_ms = schedule.TakeLags();
  out.commit_failures = session.checkpoint_failures();
  out.store_calls = rig->sink->calls();
  out.store_indexed = rig->indexer->indexed();
  if (!rig->indexer->last_error().ok()) {
    result.Problem("event store write failed: " +
                   rig->indexer->last_error().ToString());
  }
  const auto& dictionary = session.dictionary().view();
  for (const QuantumReport& report : reports) {
    for (const auto& event : report.events) {
      for (const scprt::KeywordId id : event.keywords) {
        out.spellings.emplace(id, dictionary.Spelling(id));
      }
    }
  }
  if (layers != nullptr) {
    const auto& s = out.snapshot;
    SetDetectorLayers(session.engine().core(), tally, window, *layers);
    const auto process = window.Histogram("ingest.quantum_process_ns");
    const double stages = window.SumSeconds("engine.aggregate_ns") +
                          window.SumSeconds("akg.sketch_ingest_ns") +
                          window.SumSeconds("akg.signature_refresh_ns") +
                          static_cast<double>(s.commit_ns) / 1e9;
    SetProcessQuantum(static_cast<double>(process.sum) / 1e9,
                      process.Percentile(0.50) / 1e6,
                      process.Percentile(0.99) / 1e6, stages, *layers);
    layers->Set("ingest.source_busy_s", paced.busy_s());
    layers->Set("ingest.tokenize_s", static_cast<double>(s.tokenize_ns) / 1e9);
    layers->Set("text.dictionary_keywords",
                static_cast<double>(session.dictionary().size()));
    layers->Set("durability.commits", static_cast<double>(s.commits));
    layers->Set("durability.commit_s", static_cast<double>(s.commit_ns) / 1e9);
    layers->Set("durability.commit_bytes",
                static_cast<double>(s.commit_bytes));
    layers->Set("wal.append_p99_ms", window.P99Millis("wal.append_ns"));
    layers->Set("wal.segment_cut_p99_ms",
                window.P99Millis("wal.segment_cut_ns"));
    layers->Set("durability.commit_failures",
                static_cast<double>(out.commit_failures));
    layers->Set("store.on_cluster_s", rig->sink->busy_s());
    layers->Set("store.events_indexed",
                static_cast<double>(out.store_indexed));
    layers->Set("store.page_write", window.Counter("store.page_write"));
  }
  out.dispatch_stall_p99_ms = window.P99Millis("ingest.dispatch_stall_ns");
  rig.reset();
  std::error_code ec;
  fs::remove_all(pass_dir, ec);
  AccountIngestPass(out, count, result);
  return out;
}

Result RunIngestWorkload(const WorkloadOptions& options) {
  Result result;
  const fs::path root(options.dir);
  const std::size_t delta = options.quantum_size;
  SetTracing(false);
  const auto reference = ReadDigests((root / kReferenceFile).string());
  if (!reference || reference->empty()) {
    result.Problem("missing reference digests");
    return result;
  }
  const std::size_t total = reference->size() * delta;
  if (!OpenLoopFits(options, total, result)) return result;

  // Setup: open the JSONL, build session + WAL directory + store, and run
  // until the first record has been accepted.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const fs::path dir = root / ("setup-" + std::to_string(setup_s.size()));
    const double t0 = NowSeconds();
    auto rig = MakeIngestRig(options, dir, false, result);
    if (rig == nullptr) return false;
    scprt::ingest::LimitedSource first(*rig->source, 1);
    rig->session->Run(first, nullptr, /*flush_partial=*/false);
    setup_s.push_back(NowSeconds() - t0);
    rig.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return true;
  };
  for (std::size_t r = 0; r < FirstSetups(options); ++r) {
    if (!set_up()) return result;
  }

  // Closed loop over the whole input, every pass checked against the
  // pre-tokenized reference; the first untraced one is kept for scoring.
  std::uint64_t shed = 0, malformed = 0;
  std::size_t pass_no = 0;
  auto pass_dir = [&] { return root / ("pass-" + std::to_string(pass_no++)); };
  std::optional<IngestPass> scored;
  auto account = [&](const IngestPass& pass,
                     const std::vector<std::uint64_t>& want, const char* what) {
    shed += pass.snapshot.shed;
    malformed += pass.snapshot.malformed;
    result.failed += CheckDigests(Digests(pass.pass.closed.reports), want,
                                  delta, what, result);
  };
  const std::size_t segments = options.traced ? 1 : options.open_segments;
  ClosedLoop closed(
      options, segments, result, [&](bool traced, Result* layers) {
        IngestPass pass =
            RunIngestPass(options, pass_dir(), total, 0, traced, result, layers);
        account(pass, *reference,
                traced ? "traced ingest pass vs pre-tokenized reference"
                       : "raw-text ingest vs pre-tokenized reference");
        if (traced || scored) return std::move(pass.pass.closed);
        ClosedRep rep = pass.pass.closed;
        scored = std::move(pass);
        return rep;
      });
  closed.RunSlice();

  SetTracing(options.traced);
  IngestPass open = RunIngestPass(
      options, pass_dir(), options.open_messages, options.rate, options.traced,
      result, nullptr, options.open_messages / segments,
      [&] { closed.RunSlice(); });
  SetTracing(false);
  account(open, Prefix(*reference, options.open_messages / delta),
          "open-loop ingest pass vs pre-tokenized reference");
  const double peak_rss = PeakRssMb();

  // Score against the planted truth: map the live dictionary's ids back to
  // the trace's through their spellings.
  scprt::stream::SyntheticTrace trace;
  if (!scprt::stream::ReadTraceFile((root / kTraceFile).string(), trace)) {
    result.Problem("cannot read the trace for scoring");
  } else {
    std::vector<QuantumReport> mapped = scored->pass.closed.reports;
    for (QuantumReport& report : mapped) {
      for (auto& event : report.events) {
        for (scprt::KeywordId& id : event.keywords) {
          id = trace.dictionary.Lookup(scored->spellings[id]);
        }
      }
    }
    CheckQuality(mapped, trace.script, options, result);
  }

  SetLatencyMetrics(open.pass.open, options.rate, options.traced, result);
  if (!options.traced) {
    while (setup_s.size() < options.setup_reps && set_up()) {
    }
    SetClosedLoopMetrics(closed.untraced, result);
    result.Set("peak_rss_mb", peak_rss);
    result.Set("setup_s", Median(setup_s));
    return result;
  }
  SetNoEngineLayers(result);
  result.Set("stream.trace_load_s", 0);
  result.Set("ingest.dispatch_stall_p99_ms", open.dispatch_stall_p99_ms);
  result.Set("ingest.peak_queue_depth",
             static_cast<double>(open.snapshot.peak_queue_depth));
  result.Set("ingest.shed", static_cast<double>(shed));
  result.Set("ingest.malformed", static_cast<double>(malformed));
  // Source, tokenizer workers and the inline engine: three threads.
  result.Set("engine.cpu_utilization", CpuUtilization(closed.untraced, 3));
  result.Set("loadgen.lag_p99_ms", LagP99(open.pass.open));
  SetTracingOverhead(closed.untraced, closed.traced_rates, result);
  return result;
}

// Re-interns the trace's keywords in arrival order into a fresh dictionary:
// exactly the ids a fresh-dictionary raw-text ingest assigns.
std::vector<Message> Reintern(const scprt::stream::SyntheticTrace& trace,
                              scprt::text::KeywordDictionary& dictionary) {
  std::vector<Message> messages;
  messages.reserve(trace.messages.size());
  for (const Message& message : trace.messages) {
    Message copy = message;
    for (scprt::KeywordId& id : copy.keywords) {
      id = dictionary.Intern(trace.dictionary.Spelling(id));
    }
    messages.push_back(std::move(copy));
  }
  return messages;
}

std::vector<std::uint64_t> SerialDigests(
    const std::vector<Message>& messages,
    const scprt::text::KeywordDictionary& dictionary,
    std::size_t quantum_size) {
  scprt::detect::EventDetector detector(NominalConfig(quantum_size),
                                        &dictionary);
  std::vector<std::uint64_t> digests;
  for (const Message& message : messages) {
    if (auto report = detector.Push(message)) {
      digests.push_back(scprt::detect::ReportDigest(*report));
    }
  }
  return digests;
}

}  // namespace

bool Prepare(const PrepareOptions& options) {
  scprt::stream::SyntheticConfig config =
      options.preset == "es" ? scprt::stream::EventSpecificPreset(options.seed)
                             : scprt::stream::TimeWindowPreset(options.seed);
  // Keep the preset's event density at any length: planted and spurious
  // events scale with the message count (the preset fixes them for its
  // own num_messages). More planted events also steady precision/recall.
  const double scale = static_cast<double>(options.messages) /
                       static_cast<double>(config.num_messages);
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
  };
  config.num_events = scaled(config.num_events);
  config.num_spurious = scaled(config.num_spurious);
  config.num_messages = options.messages;
  const scprt::stream::SyntheticTrace trace =
      scprt::stream::GenerateSyntheticTrace(config);
  const fs::path dir(options.dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (!scprt::stream::WriteTraceFile(trace, (dir / kTraceFile).string())) {
    std::fprintf(stderr, "cannot write the trace into %s\n",
                 options.dir.c_str());
    return false;
  }
  if (options.jsonl &&
      !scprt::ingest::WriteJsonlFile(trace, (dir / kJsonlFile).string())) {
    std::fprintf(stderr, "cannot write the JSONL into %s\n",
                 options.dir.c_str());
    return false;
  }
  std::vector<std::uint64_t> digests;
  switch (options.reference) {
    case Reference::kSerial:
      digests = SerialDigests(trace.messages, trace.dictionary,
                              options.quantum_size);
      break;
    case Reference::kReintern: {
      scprt::text::KeywordDictionary dictionary;
      const std::vector<Message> messages = Reintern(trace, dictionary);
      digests = SerialDigests(messages, dictionary, options.quantum_size);
      break;
    }
  }
  return WriteDigests(digests, (dir / kReferenceFile).string());
}

Result RunWorkload(const WorkloadOptions& options) {
  if (options.workload == "tw_serial" || options.workload == "es_serial") {
    return RunTraceWorkload(options);
  }
  if (options.workload == "ingest_wal_tw") return RunIngestWorkload(options);
  Result result;
  result.Problem("unknown workload " + options.workload);
  return result;
}

}  // namespace perfbench

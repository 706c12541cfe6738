// Summary statistics of the benchmark: medians, quartiles, and the tail
// percentile rule ("report the highest percentile that still has at least
// ten samples beyond it, with its sample count").

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty list.
double Median(std::vector<double> values);

/// First quartile, median and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) does (its default "exclusive"
/// method), so the spread the benchmark prints matches the one the
/// acceptance scripts compute. Needs at least two values; fewer give the
/// single value (or 0) for all three.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Samples a nearest-rank percentile leaves beyond it: n - ceil(q * n).
std::size_t SamplesBeyond(std::size_t n, double q);

/// Nearest-rank percentile (the ceil(q * n)-th smallest value); 0 for an
/// empty list.
double Percentile(std::vector<double> values, double q);

/// A tail reading: which percentile, its value, and how many samples it
/// rests on and leaves beyond it.
struct TailReading {
  double q = 0;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// True when at least kMinBeyond samples lie beyond the percentile.
  bool supported = false;
};

/// The percentile rule: at least this many samples must lie beyond a
/// reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Reads percentile `q` of `values` and says whether the rule supports it.
TailReading ReadPercentile(const std::vector<double>& values, double q);

/// The highest percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 75, 50
/// that the rule supports for `values`; q = 0 when not even the median is.
TailReading HighestSupportedPercentile(const std::vector<double>& values);

/// Registry histogram activity between two snapshots of the same
/// histogram (bucket-wise difference; `max` keeps the later snapshot's,
/// which bounds the interval's own maximum from above).
scprt::obs::HistogramSnapshot HistogramDelta(const scprt::obs::HistogramSnapshot& before,
                                      const scprt::obs::HistogramSnapshot& after);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

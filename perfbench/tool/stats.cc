#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  if (values.size() < 2) {
    const double v = values.empty() ? 0 : values[0];
    return {v, v, v};
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, j = i*m // 4
  // clamped to 1..n-1, linear interpolation in exact integer steps.
  const long long n = static_cast<long long>(values.size());
  const long long m = n + 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

namespace {

std::size_t NearestRank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

TailReading ReadPercentile(const std::vector<double>& values, double q) {
  TailReading reading;
  reading.q = q;
  reading.samples = values.size();
  reading.value = Percentile(values, q);
  reading.beyond = SamplesBeyond(values.size(), q);
  reading.supported = !values.empty() && reading.beyond >= kMinBeyond;
  return reading;
}

TailReading HighestSupportedPercentile(const std::vector<double>& values) {
  for (const double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50}) {
    const TailReading reading = ReadPercentile(values, q);
    if (reading.supported) return reading;
  }
  TailReading none;
  none.samples = values.size();
  return none;
}

scprt::obs::HistogramSnapshot HistogramDelta(const scprt::obs::HistogramSnapshot& before,
                                      const scprt::obs::HistogramSnapshot& after) {
  scprt::obs::HistogramSnapshot delta = after;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
  }
  if (delta.count == 0) delta.max = 0;
  return delta;
}

}  // namespace perfbench

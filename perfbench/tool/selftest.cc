// Self-tests of the benchmark's own statistics and open-loop accounting,
// run by `perfbench_tool selftest` before every measured run.

#include "selftest.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "openloop.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedianAndQuartiles() {
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even count");
  // Expected values are Python's statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
      {{10, 20}, 7.5, 15.0, 22.5},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3.0, 6.0, 9.0},
      {{2.5, 7.25, 1.0, 4.0}, 1.375, 3.25, 6.4375},
  };
  for (const Case& c : cases) {
    const Quartiles q = QuartilesOf(c.data);
    Expect(Near(q.q1, c.q1) && Near(q.median, c.q2) && Near(q.q3, c.q3),
           "quartiles match statistics.quantiles(n=4)");
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  const TailReading p99 = ReadPercentile(OneTo(1000), 0.99);
  Expect(Near(p99.value, 990) && p99.beyond == 10 && p99.samples == 1000 &&
             p99.supported,
         "p99 of 1000 samples has exactly 10 beyond it");
  Expect(!ReadPercentile(OneTo(999), 0.99).supported,
         "p99 of 999 samples is not supported");
  Expect(Near(HighestSupportedPercentile(OneTo(1000)).q, 0.99),
         "1000 samples support p99 and nothing higher");
  Expect(Near(HighestSupportedPercentile(OneTo(2000)).q, 0.995),
         "2000 samples support p99.5");
  Expect(Near(HighestSupportedPercentile(OneTo(100)).q, 0.90),
         "100 samples support p90");
  Expect(Near(HighestSupportedPercentile(OneTo(20)).q, 0.50),
         "20 samples support only the median");
  Expect(HighestSupportedPercentile(OneTo(15)).q == 0,
         "15 samples support no percentile");
  Expect(Near(Percentile(OneTo(4), 0.5), 2), "nearest-rank median");
}

// A fake detector that closes a quantum every 4 messages and stalls 50 ms
// on the fourth quantum: the open-loop latency of the quanta queued behind
// the stall must rise too, because they are timed from their due time.
void TestOpenLoopStall() {
  constexpr std::size_t kQuantum = 4;
  constexpr std::size_t kStalled = 3;
  const OpenLoopResult r = RunOpenLoop(48, 1000.0, [&](std::size_t i) {
    if ((i + 1) % kQuantum != 0) return false;
    if ((i + 1) / kQuantum - 1 == kStalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return true;
  });
  Expect(r.latency_ms.size() == 12, "one latency per quantum");
  if (r.latency_ms.size() != 12) return;
  Expect(r.latency_ms[kStalled] >= 50, "the stalled quantum pays the stall");
  Expect(r.latency_ms[kStalled + 1] >= 40,
         "the next quantum waits behind the stall");
  Expect(r.latency_ms[kStalled + 2] >= 35,
         "the one after that still waits behind it");
  Expect(r.latency_ms[kStalled + 1] > r.latency_ms[kStalled + 3],
         "the backlog drains");
  Expect(r.lag_ms.size() == 48 && r.lag_ms[(kStalled + 1) * kQuantum] >= 30,
         "messages queued behind the stall are released late");
}

// Two segments with a 100 ms pause between them: the second segment
// re-anchors the schedule, so the pause counts neither as latency nor as
// release lag, nor as segment time.
void TestOpenLoopSegments() {
  const OpenLoopResult r = RunOpenLoop(
      16, 1000.0, 8, [](std::size_t i) { return (i + 1) % 4 == 0; },
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(100)); });
  bool prompt = r.latency_ms.size() == 4;
  for (const double ms : r.latency_ms) prompt = prompt && ms < 50;
  Expect(prompt, "a pause between segments is not latency");
  Expect(r.lag_ms.size() == 16 && r.lag_ms[8] < 50,
         "the first release after a pause is not late");
  Expect(r.wall_s < 0.08, "segment time leaves the pause out");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestMedianAndQuartiles();
  TestPercentileRule();
  TestOpenLoopStall();
  TestOpenLoopSegments();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures;
}

}  // namespace perfbench

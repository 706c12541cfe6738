// Open-loop release schedule: message i is due at t0 + i / rate, whether
// or not the system has kept up. Latency is timed from the due time, so a
// stall also counts against every message queued behind it. A pass may be
// cut into segments with a pause between them (the benchmark runs its
// closed-loop repetitions there); each segment re-anchors the schedule, so
// the pause is not counted as lateness.

#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

/// Fixed-rate schedule. StartAt(i) anchors it so that message i is due
/// now; WaitUntilDue(i) blocks until message i is due (returning at once
/// when the caller is already late) and records how late the release was.
class Schedule {
 public:
  /// Lags are kept for `messages` releases, reserved up front so the
  /// benchmark's own bookkeeping does not raise the peak RSS it measures.
  Schedule(double rate_per_s, std::size_t messages)
      : ns_per_message_(1e9 / rate_per_s) {
    lag_ms_.reserve(messages);
  }

  void StartAt(std::uint64_t i) {
    t0_ns_ = scprt::obs::MonotonicNanos() -
             static_cast<std::int64_t>(std::llround(
                 static_cast<double>(i) * ns_per_message_));
  }

  std::int64_t DueNs(std::uint64_t i) const {
    return t0_ns_ +
           static_cast<std::int64_t>(std::llround(
               static_cast<double>(i) * ns_per_message_));
  }

  /// Releases message i: sleeps until its due time, then records the lag
  /// (release - due) in milliseconds.
  void WaitUntilDue(std::uint64_t i) {
    const std::int64_t due = DueNs(i);
    std::int64_t now = scprt::obs::MonotonicNanos();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = scprt::obs::MonotonicNanos();
    }
    lag_ms_.push_back(static_cast<float>(static_cast<double>(now - due) / 1e6));
  }

  /// Milliseconds from message i's due time until now.
  double MillisSinceDue(std::uint64_t i) const {
    return static_cast<double>(scprt::obs::MonotonicNanos() - DueNs(i)) / 1e6;
  }

  std::vector<float> TakeLags() { return std::move(lag_ms_); }

 private:
  double ns_per_message_;
  std::int64_t t0_ns_ = 0;
  std::vector<float> lag_ms_;
};

/// Per-quantum latencies and release lags of one open-loop pass.
struct OpenLoopResult {
  std::vector<double> latency_ms;
  std::vector<float> lag_ms;
  /// Time spent in the segments (pauses excluded).
  double wall_s = 0;
};

/// Drives `count` messages at `rate_per_s` through `push(i)`, which returns
/// true when message i closed a quantum and that quantum's report has
/// returned. The latency of that quantum runs from message i's due time.
/// The messages go out in segments of `segment`, with `gap()` called
/// between two segments.
template <class PushFn, class GapFn>
OpenLoopResult RunOpenLoop(std::size_t count, double rate_per_s,
                           std::size_t segment, PushFn&& push, GapFn&& gap) {
  Schedule schedule(rate_per_s, count);
  OpenLoopResult result;
  for (std::size_t begin = 0; begin < count; begin += segment) {
    if (begin > 0) gap();
    const std::size_t end = std::min(count, begin + segment);
    schedule.StartAt(begin);
    const std::int64_t start = scprt::obs::MonotonicNanos();
    for (std::size_t i = begin; i < end; ++i) {
      schedule.WaitUntilDue(i);
      if (push(i)) result.latency_ms.push_back(schedule.MillisSinceDue(i));
    }
    result.wall_s +=
        static_cast<double>(scprt::obs::MonotonicNanos() - start) / 1e9;
  }
  result.lag_ms = schedule.TakeLags();
  return result;
}

/// One segment, no pause.
template <class PushFn>
OpenLoopResult RunOpenLoop(std::size_t count, double rate_per_s,
                           PushFn&& push) {
  return RunOpenLoop(count, rate_per_s, count, std::forward<PushFn>(push),
                     [] {});
}

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_

// One run's outcome as the tool prints it: named metrics, the operation
// counts behind error_rate, and whether every correctness check held.

#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Result {
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons the run is not correct (empty when every check held).
  std::vector<std::string> problems;
  /// Human-readable context: sample counts, tail readings, pass sizes.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Problem(std::string what) { problems.push_back(std::move(what)); }
  void Note(std::string what) { notes.push_back(std::move(what)); }
  bool correct() const { return problems.empty(); }

  /// One-line JSON: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:value,..},"problems":[..],"notes":[..]}.
  std::string Json() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_

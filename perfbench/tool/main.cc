// perfbench_tool — the compiled half of the repository benchmark
// (perfbench/run.py is the other half and the entry point).
//
//   perfbench_tool prepare --preset tw|es --seed N --messages N --dir DIR
//                  [--jsonl 1] [--reference serial|reintern]
//       Generate a workload's inputs into DIR: the pre-tokenized trace
//       (with its planted ground truth), optionally the same content as
//       raw JSONL, and the reference report digests a run must match.
//
//   perfbench_tool run --workload NAME --dir DIR --traced 0|1
//                  --closed-seconds S --open-messages N --rate R
//                  [--open-segments N] [--setup-reps N]
//                  [--threads N --engine-rate R] [--min-precision F]
//                  [--min-recall F] [--spans FILE]
//       Run one workload on prepared inputs in this (fresh) process and
//       print one JSON line: metrics, operation counts, problems, notes.
//
//   perfbench_tool selftest
//       Check the benchmark's own statistics and open-loop accounting.

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/trace.h"
#include "result.h"
#include "selftest.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool prepare|run|selftest [--flag value]...\n"
               "(see the header of perfbench/tool/main.cc)\n");
  return 2;
}

}  // namespace

std::string Result::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << JsonString(metrics[i].first) << ":"
        << metrics[i].second;
  }
  out << "},\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out << (i ? "," : "") << JsonString(problems[i]);
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? "," : "") << JsonString(notes[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  auto get = [&](const char* key, const char* fallback) {
    const auto it = flags.find(key);
    return it != flags.end() ? it->second : std::string(fallback);
  };
  auto number = [&](const char* key, const char* fallback) {
    return std::strtod(get(key, fallback).c_str(), nullptr);
  };

  if (command == "selftest") return RunSelfTests() == 0 ? 0 : 1;

  if (command == "prepare") {
    PrepareOptions options;
    options.preset = get("preset", "tw");
    options.seed = std::strtoull(get("seed", "1").c_str(), nullptr, 10);
    options.messages = std::strtoull(get("messages", "0").c_str(), nullptr, 10);
    options.dir = get("dir", "");
    options.jsonl = get("jsonl", "0") == "1";
    const std::string reference = get("reference", "serial");
    options.reference = reference == "reintern" ? Reference::kReintern
                                                : Reference::kSerial;
    if (options.dir.empty() || options.messages == 0 ||
        (reference != "serial" && reference != "reintern") ||
        (options.preset != "tw" && options.preset != "es")) {
      return Usage();
    }
    return Prepare(options) ? 0 : 1;
  }

  if (command == "run") {
    WorkloadOptions options;
    options.workload = get("workload", "");
    options.dir = get("dir", "");
    options.traced = get("traced", "0") == "1";
    options.threads = static_cast<std::size_t>(number("threads", "0"));
    options.engine_rate = number("engine-rate", "0");
    options.setup_reps = static_cast<std::size_t>(number("setup-reps", "5"));
    options.closed_seconds = number("closed-seconds", "5");
    options.open_messages =
        static_cast<std::size_t>(number("open-messages", "0"));
    options.rate = number("rate", "0");
    options.open_segments =
        static_cast<std::size_t>(number("open-segments", "1"));
    options.min_precision = number("min-precision", "0");
    options.min_recall = number("min-recall", "0");
    if (options.workload.empty() || options.dir.empty() ||
        options.open_messages == 0 || options.rate <= 0 ||
        options.open_segments == 0 ||
        options.setup_reps == 0 ||
        (options.threads > 0 && options.engine_rate <= 0)) {
      return Usage();
    }
    // 1 us timer slack, so open-loop releases wake close to their due time.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    const Result result = RunWorkload(options);
    const std::string spans = get("spans", "");
    if (options.traced && !spans.empty()) {
      std::ofstream out(spans);
      out << scprt::obs::Tracer::Default().DrainJson() << "\n";
    }
    std::printf("%s\n", result.Json().c_str());
    return 0;
  }
  return Usage();
}

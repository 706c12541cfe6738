#!/usr/bin/env python3
"""The repository benchmark: one command, every end-to-end metric.

    python3 perfbench/run.py --workload tw_serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run

  1. builds perfbench_tool from this checkout's sources (CMake, Release)
     into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
  2. runs the tool's self-tests (statistics and open-loop accounting);
  3. generates the workload's inputs from (preset, seed, messages) into a
     scratch directory of its own, with the reference report digests;
  4. runs the workload in a fresh process, which sees only those files;
  5. prints a metric table to stderr and, as the last line of stdout, one
     JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics of a traced run. The metric names and units are the
ones BENCHMARK.json lists. The exit code is nonzero when a check fails
(report digests against their reference, precision/recall floors, the
self-tests) or the build or a step fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

QUANTUM = 160  # delta, the Table 2 nominal quantum size

# Each workload's input and its fixed open-loop offered rate. The rates are
# constants, about a quarter of the closed-loop capacity of the commit that
# introduced the benchmark, so a co-tenant slowing the shared machine does
# not build a backlog; they are not derived from the code under test.
# Every closed-loop repetition covers the whole input (2000 quanta). The
# open loop covers its first 1000 quanta (so a p99 has 10 beyond it), in
# `segments` pieces spread over the run between the repetitions.
WORKLOADS = {
    "tw_serial": {
        "preset": "tw", "messages": 320_000, "open_messages": 160_000,
        "segments": 10, "reference": "serial", "jsonl": False,
        "rate": 25_000, "setup_reps": 6,
        "min_precision": 0.75, "min_recall": 0.75,
    },
    # The traced run also measures the sharded ParallelDetector (the engine
    # layer) at `threads` threads, offered `engine_rate` msg/s.
    "es_serial": {
        "preset": "es", "messages": 320_000, "open_messages": 160_000,
        "segments": 10, "reference": "serial", "jsonl": False,
        "rate": 20_000, "setup_reps": 6,
        "min_precision": 0.75, "min_recall": 0.85,
        "threads": 4, "engine_rate": 25_000,
    },
    "ingest_wal_tw": {
        "preset": "tw", "messages": 320_000, "open_messages": 160_000,
        "segments": 10, "reference": "reintern", "jsonl": True,
        "rate": 15_000, "setup_reps": 52,
        "min_precision": 0.75, "min_recall": 0.75,
    },
}

TOOL_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def closed_loop_seconds(workload, seconds):
    """The closed loop gets what the open-loop pass leaves of the run."""
    spec = WORKLOADS[workload]
    return max(0.0, seconds - spec["open_messages"] / spec["rate"])


def build(build_root):
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build_root / "tmp"))
    (build_root / "tmp").mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return build_dir / "perfbench_tool"


def run_tool(tool, args, timeout):
    done = subprocess.run([str(tool)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout,
                          check=True)
    return done.stdout


def print_table(workload, seed, result, units):
    log(f"perfbench {workload} seed {seed}: "
        f"{'correct' if result['correct'] else 'INCORRECT'}")
    attempted, failed = result["attempted"], result["failed"]
    log(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio"
        f"   ({failed} failed of {attempted} operations)")
    for name, value in result["metrics"].items():
        log(f"  {name:34s} {value:14.6g} {units.get(name, '?')}")
    for note in result.get("notes", []):
        log(f"  note: {note}")
    for problem in result.get("problems", []):
        log(f"  PROBLEM: {problem}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    traced = args.trace == 1
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    wanted = declared["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    tool = build(build_root)
    run_tool(tool, ["selftest"], 60)

    work = build_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        started = time.monotonic()
        run_tool(tool, [
            "prepare", "--preset", spec["preset"], "--seed", str(args.seed),
            "--messages", str(spec["messages"]), "--dir", str(work),
            "--jsonl", "1" if spec["jsonl"] else "0",
            "--reference", spec["reference"]], TOOL_TIMEOUT_S)
        log(f"inputs prepared in {time.monotonic() - started:.1f} s")
        spans = build_root / "spans" / f"{args.workload}-{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        out = run_tool(tool, [
            "run", "--workload", args.workload, "--dir", str(work),
            "--traced", str(args.trace),
            "--closed-seconds",
            str(closed_loop_seconds(args.workload, args.seconds)),
            "--open-messages", str(spec["open_messages"]),
            "--rate", str(spec["rate"]),
            "--open-segments", str(spec["segments"]),
            "--threads", str(spec.get("threads", 0)),
            "--engine-rate", str(spec.get("engine_rate", 0)),
            "--setup-reps", str(spec["setup_reps"]),
            "--min-precision", str(spec["min_precision"]),
            "--min-recall", str(spec["min_recall"]),
            "--spans", str(spans)], TOOL_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(out.strip().splitlines()[-1])
    got = set(result["metrics"])
    if got != set(units):
        result["problems"].append(
            f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(units) - got)}, extra {sorted(got - set(units))}")
    print_table(args.workload, args.seed, result, units)
    correct = result["correct"] and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": units[name]}
                    for name in units if name in result["metrics"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"perfbench: failed: {error}")
        sys.exit(1)

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 plfoc_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plfoc checkout. Builds plfoc_bench (this directory is
its CMake project; it compiles the library from ../src) into
$CARGO_TARGET_DIR/plfoc_bench, default .bench_build/plfoc_bench, runs it in a
fresh work directory there, checks that its result names exactly the metrics
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1) with their units, and relays its standard output: an info line,
then the result line. Traced runs keep their span file under
<build>/traces/. The exit code is 0 only when the build and the run
succeeded and every result was correct.

--binary PATH skips the build and runs that executable (the ctest smoke
tests use it); --smoke selects the reduced sizes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; all output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any((build_dir / name).exists()
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "plfoc_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "plfoc_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in table}


def check_result(line, trace):
    """Return the parsed result line, or exit when it breaks the schema."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON", 3)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys must be exactly {sorted(RESULT_KEYS)}", 3)
    if not isinstance(result["correct"], bool):
        fail("'correct' must be a boolean", 3)
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' must be a whole number", 3)
    if result["attempted"] < 1:
        fail("'attempted' must be at least 1", 3)
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}", 3)
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected[name]:
            fail(f"metric {name}: want {{value, unit={expected[name]}}}", 3)
        if not isinstance(entry["value"], (int, float)):
            fail(f"metric {name}: value is not a number", 3)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--binary", type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    trace = args.trace == "1"

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "plfoc_bench"
    binary = args.binary.resolve() if args.binary else build(build_dir)

    workdir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(workdir)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        for span_file in workdir.glob("trace-*.json"):
            shutil.move(str(span_file),
                        traces / f"{args.workload}-seed{args.seed}.json")
    shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"plfoc_bench exited with code {done.returncode}")
    result = check_result(lines[-1], trace)
    print("\n".join(lines), flush=True)
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run N sets of every workload on two checkouts, alternating which runs first.

    python3 plfoc_bench/sets.py A_DIR B_DIR [--sets 10] [--trace 0|1]
                                [--workload NAME ...] [--out PREFIX]

A_DIR and B_DIR are source trees of the parent and the change (for example
from `git archive`), each holding this benchmark. Set i runs every workload
with seed i on both sides, A first in odd sets and B first in even ones, for
BENCHMARK.json's run_seconds, through each side's own run.py (which builds
on first use). Results go to PREFIX-a.jsonl and PREFIX-b.jsonl (default
PREFIX: sets), one run per line; compare.py reads them.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def run(checkout, workload, seed, trace):
    command = [sys.executable, "plfoc_bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"sets.py: {workload} seed {seed} failed in {checkout}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "info": json.loads(lines[-2])["info"],
            "result": json.loads(lines[-1])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default="sets")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    sides = {"a": args.a_dir.resolve(), "b": args.b_dir.resolve()}
    outputs = {side: open(f"{args.out}-{side}.jsonl", "a") for side in sides}
    for seed in range(1, args.sets + 1):
        order = ["a", "b"] if seed % 2 else ["b", "a"]
        for workload in workloads:
            for side in order:
                record = run(sides[side], workload, seed, args.trace)
                outputs[side].write(json.dumps(record) + "\n")
                outputs[side].flush()
                print(f"set {seed} {workload} {side}: "
                      f"{record['result']['correct']}", file=sys.stderr)
    for handle in outputs.values():
        handle.close()


if __name__ == "__main__":
    main()

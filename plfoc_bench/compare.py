#!/usr/bin/env python3
"""Compare two sets of plfoc_bench runs, a parent (A) and a change (B).

    python3 plfoc_bench/compare.py A.jsonl B.jsonl

Each line of the inputs is one run as sets.py records it:
{"workload", "seed", "trace", "info", "result"}. For every workload and
end-to-end metric the report gives each side's median and quartiles, the
parent's spread (quartile distance over median), B's change against A as a
share of A's median (positive = worse), the pairs B won (runs of the same
seed), and a verdict:

  regression  B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json;
  gain        B won at least 9 of every 10 pairs (ties count for neither) and
              the medians differ by more than A's quartile distance;
  unresolved  A's own spread is wider than the bound, and B does not beat
              every A run;
  same        none of the above.

It also checks that both sides saw the same inputs and produced the same
results (the digests in each run's info line) and, for traced runs, that
every count-valued per-layer metric repeats exactly. Exits 1 on any
regression or mismatch.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def load(path):
    runs = defaultdict(dict)  # (workload, trace) -> seed -> record
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])][record["seed"]] = record
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else \
        (values[0],) * 3
    return q1, statistics.median(values), q3


def verdict(metric, a, b):
    """a, b: seed -> value. Returns the report row and whether it regressed."""
    lower = metric["better"] == "lower"
    av, bv = list(a.values()), list(b.values())
    a1, am, a3 = summary(av)
    _, bm, _ = summary(bv)
    worse = (bm - am) / am if lower else (am - bm) / am
    spread = (a3 - a1) / am if am else 0.0
    pairs = [s for s in a if s in b]
    wins = sum(1 for s in pairs if (b[s] < a[s] if lower else b[s] > a[s]))
    all_better = (max(bv) < min(av)) if lower else (min(bv) > max(av))
    if spread > metric["bound"] and not all_better:
        label = "unresolved"
    elif worse > metric["bound"]:
        label = "regression"
    elif (pairs and wins >= 0.9 * len(pairs) and worse < 0
          and abs(bm - am) > a3 - a1):
        label = "gain"
    else:
        label = "same"
    row = (f"  {metric['name']:18s} A {am:12.4f} [{a1:.4f}, {a3:.4f}]  "
           f"B {bm:12.4f}  change {100 * worse:+7.2f}%  spread "
           f"{100 * spread:5.2f}% (bound {100 * metric['bound']:.0f}%)  "
           f"B won {wins}/{len(pairs)}  {label}")
    return row, label == "regression"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for (workload, trace) in sorted(set(side_a) | set(side_b)):
        a, b = side_a.get((workload, trace), {}), side_b.get((workload, trace), {})
        print(f"{workload} (trace {trace}): {len(a)} A runs, {len(b)} B runs")
        for seed in sorted(set(a) & set(b)):
            for key in ("input_digest", "result_digest"):
                if a[seed]["info"].get(key) != b[seed]["info"].get(key):
                    print(f"  seed {seed}: {key} differs")
                    bad = True
            for name, entry in a[seed]["result"]["metrics"].items():
                other = b[seed]["result"]["metrics"].get(name)
                if entry["unit"] == "count" and other != entry:
                    print(f"  seed {seed}: count {name} differs")
                    bad = True
        if trace != 0 or not a or not b:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [{s: r["result"]["metrics"][name]["value"]
                       for s, r in side.items()} for side in (a, b)]
            row, regressed = verdict(metric, *values)
            print(row)
            bad |= regressed
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Append plfoc_bench parent/change pairs to a BENCH file, or check one.

    python3 tools/bench_record.py PREFIX --parent REV --change REV
                                  [--out results/BENCH_plfoc.json]
    python3 tools/bench_record.py --check [results/BENCH_plfoc.json]

PREFIX names the PREFIX-a.jsonl (parent) and PREFIX-b.jsonl (change) files
that plfoc_bench/sets.py writes. For every workload with end-to-end runs on
both sides, one row is appended. A row holds:

  workload, parent and change (full commit ids), seeds, run_seconds;
  metrics: per BENCHMARK.json end-to-end metric, its unit, direction and
    bound, each side's per-seed values with their median, quartiles, IQR,
    min and max, the pairs and the pairs the change won, and the verdict of
    plfoc_bench/compare.py's verdict();
  units: attempted and failed units per side;
  digests: per side and seed, the input and result digests, and whether
    the two sides agree on every seed;
  host: CPU model, vCPUs, RAM, kernel and the file system of this
    checkout (record on the host that ran the pairs), each side's median
    host_scale, and modeled: false (the numbers are measured).

--check validates the file with the standard library only: the schema, and
that each row's summaries, pairs won and verdict follow from its own values
under compare.py's rule. It exits 1 on the first row that does not.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "plfoc_bench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in plfoc_bench/
from compare import SPEC, load, summary, verdict  # noqa: E402

DEFAULT_OUT = ROOT / "results" / "BENCH_plfoc.json"
SIDES = {"parent": "a", "change": "b"}
SIDE_KEYS = {"median", "q1", "q3", "iqr", "min", "max", "values"}
METRIC_KEYS = {"unit", "better", "bound", "parent", "change", "pairs",
               "pairs_won", "verdict"}
ROW_KEYS = {"workload", "parent", "change", "seeds", "run_seconds",
            "metrics", "units", "digests", "host"}
HOST_KEYS = {"cpu", "vcpus", "ram_gib", "kernel", "filesystem",
             "host_scale", "modeled"}


def side_summary(values):
    """values: seed (str) -> value."""
    q1, median, q3 = summary(list(values.values()))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values.values()), "max": max(values.values()),
            "values": values}


def judge(metric, parent, change):
    """compare.py's verdict on two seed -> value maps: (label, pairs, won)."""
    text, _ = verdict(metric, parent, change)
    won, pairs = text.split(" B won ")[1].split()[0].split("/")
    return text.split()[-1], int(pairs), int(won)


def git_commit(rev):
    done = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_record.py: {rev} is not a commit")
    return done.stdout.strip()


def host_facts(runs):
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    ram_kib = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            ram_kib = int(line.split()[1])
    # The file system of the mount holding this checkout: the longest mount
    # point that prefixes it.
    here, filesystem, best = str(ROOT), "unknown", ""
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        point = fields[1]
        inside = here == point or here.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, filesystem = point, fields[2]
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "ram_gib": round(ram_kib / 1048576, 1),
            "kernel": platform.release(), "filesystem": filesystem,
            "host_scale": {side: statistics.median(
                r["info"]["host_scale"] for r in runs[side].values())
                for side in SIDES},
            "modeled": False}


def make_row(workload, runs, parent, change):
    seeds = sorted(set(runs["parent"]) & set(runs["change"]))
    runs = {side: {str(s): runs[side][s] for s in seeds} for side in SIDES}
    metrics = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = {side: {s: r["result"]["metrics"][name]["value"]
                         for s, r in runs[side].items()} for side in SIDES}
        label, pairs, won = judge(metric, values["parent"], values["change"])
        metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"],
                         "parent": side_summary(values["parent"]),
                         "change": side_summary(values["change"]),
                         "pairs": pairs, "pairs_won": won, "verdict": label}
    digests = {side: {s: {key: r["info"].get(key) for key in
                          ("input_digest", "result_digest")}
                      for s, r in runs[side].items()} for side in SIDES}
    return {"workload": workload, "parent": parent, "change": change,
            "seeds": seeds, "run_seconds": SPEC["run_seconds"],
            "metrics": metrics,
            "units": {side: {key: sum(r["result"][key]
                                      for r in runs[side].values())
                             for key in ("attempted", "failed")}
                      for side in SIDES},
            "digests": {**digests,
                        "equal": digests["parent"] == digests["change"]},
            "host": host_facts(runs)}


def record(args):
    sides = {side: load(f"{args.prefix}-{suffix}.jsonl")
             for side, suffix in SIDES.items()}
    parent, change = git_commit(args.parent), git_commit(args.change)
    rows = json.loads(args.out.read_text())["rows"] if args.out.exists() \
        else []
    added = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = {side: sides[side].get((workload, 0), {}) for side in SIDES}
        if not set(runs["parent"]) & set(runs["change"]):
            continue
        rows.append(make_row(workload, runs, parent, change))
        added += 1
    args.out.write_text(json.dumps({"bench": "plfoc_bench", "rows": rows},
                                   indent=1) + "\n")
    print(f"appended {added} rows to {args.out}")


def check_row(row):
    """Returns the first problem with a row, or None."""
    if set(row) != ROW_KEYS:
        return f"keys {sorted(set(row) ^ ROW_KEYS)} missing or unknown"
    for side in SIDES:
        if not (isinstance(row[side], str) and len(row[side]) == 40):
            return f"{side} is not a full commit id"
    if set(row["host"]) != HOST_KEYS or row["host"]["modeled"] is not False:
        return "host facts incomplete or modeled"
    seeds = [str(s) for s in row["seeds"]]
    for name, m in row["metrics"].items():
        if set(m) != METRIC_KEYS:
            return f"{name}: keys {sorted(set(m) ^ METRIC_KEYS)}"
        for side in SIDES:
            if set(m[side]) != SIDE_KEYS or sorted(m[side]["values"]) != \
                    sorted(seeds):
                return f"{name}: {side} summary or seeds do not match"
            if side_summary(m[side]["values"]) != m[side]:
                return f"{name}: {side} summary does not follow its values"
        metric = {"name": name, "better": m["better"], "bound": m["bound"]}
        label, pairs, won = judge(metric, m["parent"]["values"],
                                  m["change"]["values"])
        if (label, pairs, won) != (m["verdict"], m["pairs"], m["pairs_won"]):
            return (f"{name}: recorded {m['verdict']} {m['pairs_won']}/"
                    f"{m['pairs']}, values give {label} {won}/{pairs}")
    names = [m["name"] for m in SPEC["end_to_end"]]
    if sorted(row["metrics"]) != sorted(names):
        return "metrics differ from BENCHMARK.json's end-to-end metrics"
    digests = row["digests"]
    if digests["equal"] != (digests["parent"] == digests["change"]):
        return "digests.equal does not follow the digests"
    return None


def check(path):
    rows = json.loads(path.read_text())["rows"]
    for i, row in enumerate(rows):
        problem = check_row(row)
        if problem:
            sys.exit(f"{path}: row {i} ({row.get('workload')}): {problem}")
    print(f"{path}: {len(rows)} rows ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("prefix", nargs="?")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--check", nargs="?", type=Path, const=DEFAULT_OUT)
    args = parser.parse_args()
    if args.check:
        check(args.check)
    elif args.prefix and args.parent and args.change:
        record(args)
    else:
        parser.error("give PREFIX --parent REV --change REV, or --check")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of run records (the .json files run.py writes
to .bench_build/results/) or a list of such files separated by commas.
Runs of each side are grouped by workload and paired by seed. For every
workload and end-to-end metric it prints both medians and quartiles and a
verdict from stats.verdict: "gain" (the change wins nine tenths of the
pairs and the medians differ by more than the parent's quartile distance),
"ok", "regression" (the change's median is worse by more than the metric's
bound in BENCHMARK.json) or "unresolved".

Timings are only comparable on the same host and build. When the host
blocks differ, only the deterministic metrics are compared, and the output
says so. Exits 1 when any verdict is "regression".
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Functions of the inputs alone: equal on every host for the same seed.
DETERMINISTIC = ("cut", "max_part_ratio", "modeled_s")

# Host fields that decide whether timings are comparable.
HOST_KEYS = ("nproc", "cpu_model", "caches", "compiler", "build_type",
             "sp_flags")


def load_runs(arg):
    """Untraced run records of one side, from a directory or file list."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else \
        [Path(p) for p in arg.split(",") if p]
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if r.get("trace") == 0]


def same_host(parent_runs, change_runs):
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True)
             for r in parent_runs + change_runs}
    return len(hosts) == 1


def paired(parent_runs, change_runs, workload, metric):
    """Values of `metric` for the seeds both sides ran, in seed order."""
    def by_seed(runs):
        return {r["seed"]: r["metrics"][metric]["value"]
                for r in runs if r["workload"] == workload}
    p, c = by_seed(parent_runs), by_seed(change_runs)
    seeds = sorted(set(p) & set(c))
    return [p[s] for s in seeds], [c[s] for s in seeds]


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, parent values, change values, verdict)."""
    metrics = spec["end_to_end"]
    if not same_host(parent_runs, change_runs):
        metrics = [m for m in metrics if m["name"] in DETERMINISTIC]
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for workload in workloads:
        for m in metrics:
            p, c = paired(parent_runs, change_runs, workload, m["name"])
            if not p:
                continue
            rows.append((workload, m["name"], p, c,
                         stats.verdict(p, c, m["better"], m["bound"])))
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    if not same_host(parent, change):
        print("hosts or builds differ: comparing only the deterministic "
              f"metrics ({', '.join(DETERMINISTIC)})")
    rows = compare(parent, change, spec)
    if not rows:
        print("no workload was run by both sides with the same seed")
        return 1
    print(f"{'workload':<13} {'metric':<15} {'pairs':>5} "
          f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32}  verdict")
    for workload, metric, p, c, verdict in rows:
        fmt = "/".join(f"{v:.4g}" for v in stats.quartiles(p))
        cfmt = "/".join(f"{v:.4g}" for v in stats.quartiles(c))
        print(f"{workload:<13} {metric:<15} {len(p):>5} {fmt:>32} "
              f"{cfmt:>32}  {verdict}")
    return 1 if any(r[4] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

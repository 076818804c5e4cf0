#!/usr/bin/env python3
"""Runs one workload of the ScalaPart benchmark and prints its metrics.

    python3 perfbench/run.py --workload embed-p16 --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree. It builds perfbench/spbench and the
library under src/ (Release, SP_ANALYSIS off) into .bench_build/, generates
the workload's inputs from the seed in one process, and measures them in
another. Standard output carries a host block and a table of every metric;
its last line is the result:

    {"correct": true, "attempted": 32, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced replay. Each run also writes its full record
(host, build, raw samples, all metrics) to .bench_build/results/, which
compare.py reads. perfbench/README.md names every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("embed-p16", "threads-p16", "coords-kway")

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cut": "edges",
    "max_part_ratio": "ratio",
    "modeled_s": "s",
}

PER_LAYER = {
    "graph.read_metis_s": "s",
    "graph.read_coords_s": "s",
    "graph.bytes_read": "bytes",
    "graph.self_s": "s",
    "coarsen.hierarchy_build_s": "s",
    "coarsen.match_s": "s",
    "coarsen.levels": "count",
    "coarsen.match_rate": "ratio",
    "coarsen.messages": "count",
    "coarsen.self_s": "s",
    "embed.lattice_s": "s",
    "embed.vertex_iters": "count",
    "embed.ns_per_vertex_iter": "ns",
    "embed.modeled_compute_s": "s",
    "embed.wall_per_modeled": "ratio",
    "embed.messages": "count",
    "embed.bytes": "bytes",
    "embed.self_s": "s",
    "geometry.quadtree_build_s": "s",
    "geometry.bh_pass_s": "s",
    "geometry.bh_ns_per_query": "ns",
    "geometry.self_s": "s",
    "partition.gmt_s": "s",
    "partition.cut_before_refine": "edges",
    "partition.pg7nl_s": "s",
    "partition.kway_s": "s",
    "partition.messages": "count",
    "partition.self_s": "s",
    "refine.strip_fm_s": "s",
    "refine.cut_gain": "edges",
    "refine.strip_size": "count",
    "comm.messages": "count",
    "comm.bytes": "bytes",
    "comm.collectives": "count",
    "comm.coalesced_batches": "count",
    "comm.arena_hit_rate": "ratio",
    "comm.empty_run_s": "s",
    "exec.engine_wall_s": "s",
    "exec.parked_wall_s": "s",
    "exec.parked_frac": "ratio",
    "exec.self_s": "s",
    "core.outside_engine_s": "s",
    "core.self_s": "s",
    "trace.overhead_s": "s",
}

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
MEASURE_TIMEOUT_S = 160


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout, capture=False):
    """Runs one step; its own output goes to stderr unless captured."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(map(str, cmd))}")
    return done.stdout


def build():
    """Configures once and builds spbench; returns its path."""
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "build.ninja").exists() and \
            not (cmake_dir / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", ROOT / "perfbench", "-B", cmake_dir,
                  "-DCMAKE_BUILD_TYPE=Release", *generator], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_step(["cmake", "--build", cmake_dir, "--target", "spbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return cmake_dir / "spbench"


def read_first(path, default=None):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def cpu_model():
    for line in (read_first("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes():
    """{"L2": "2048K", "L3": "..."} of cpu0, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_first(index / "level")
        kind = read_first(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = read_first(index / "size", "unknown")
    return sizes


def source_digest():
    """sha256 over the library and benchmark sources, in path order: names
    the code that was measured even where there is no git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_block(build_info):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "compiler": build_info["compiler"],
        "build_type": build_info["type"],
        "sp_flags": build_info["sp_flags"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def end_to_end(raw):
    calls = [c for c in raw["calls"] if c["entry"] != "failed"]
    if not calls:
        fail("no call succeeded")
    return {
        "cpu_s": stats.median(raw["pass_cpu_s"]),
        "setup_s": stats.median(raw["setup_cpu_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "cut": stats.geomean(c["cut"] for c in calls),
        "max_part_ratio": 1.0 + max(c["imbalance"] for c in calls),
        "modeled_s": sum(c["modeled_s"] for c in calls),
    }


def per_layer(raw, wall_s):
    trace = raw["trace"]
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["calls_s"] - wall_s
    missing = set(PER_LAYER) - set(layers)
    if missing:
        fail(f"the traced run did not report {sorted(missing)}")
    return {name: layers[name] for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    spbench = build()

    input_dir = run_step([spbench, "gen", "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--root", BUILD / "inputs"],
                         GEN_TIMEOUT_S, capture=True).strip()
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    measure = [spbench, "measure", "--workload", args.workload,
               "--inputs", input_dir, "--seconds", str(args.seconds)]
    if args.trace:
        measure += ["--spans", results / f"{stamp}.spans.jsonl"]
    out = run_step(measure, MEASURE_TIMEOUT_S, capture=True)
    raw = json.loads(out.strip().splitlines()[-1])

    host = host_block(raw["build"])
    e2e = end_to_end(raw)
    wall_s = stats.median(raw["pass_s"])
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer(raw, wall_s).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "correct": correct, "metrics": metrics, "raw": raw}
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1))

    passes = len(raw["pass_s"])
    print("host " + json.dumps(host, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(raw['inputs'])} inputs, "
          f"{passes} passes, {raw['attempted']} calls, "
          f"{raw['failed']} failed")
    for err in raw["errors"]:
        print(f"  error: {err}")
    for name, samples, what in (("cpu_s", "pass_cpu_s", "passes"),
                                ("wall_s", "pass_s", "passes"),
                                ("setup_s", "setup_cpu_s", "loads"),
                                ("setup_wall_s", "setup_s", "loads")):
        q1, q2, q3 = stats.quartiles(raw[samples])
        print(f"  {name:<28} {q2:.6g} s  (median of {len(raw[samples])} "
              f"{what}, quartiles {q1:.6g}..{q3:.6g})")
    for name in list(END_TO_END)[2:]:
        print(f"  {name:<28} {e2e[name]:.6g} {END_TO_END[name]}")
    print(f"  {'error_rate':<28} {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']}/{raw['attempted']})")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark entry point (BENCHMARK.json "command").

    python3 perfbench/run.py --workload scf-water4 --seed 1 --seconds 12 --trace 0

Builds the repository's libraries with the repository's own CMake
configuration, builds the perfbench binary against them, and runs one
workload (or, with --workload all, each in turn). Build trees live under
$CARGO_TARGET_DIR (default .bench_build) at the repository root; build
output goes to stderr.

The last stdout line is the result JSON. With --trace 0 its metrics are
BENCHMARK.json's end_to_end metrics; with --trace 1 its per_layer metrics,
where a layer the workload does not exercise reads 0 and exact.mismatches
counts the exact counters that differ from perfbench/expected.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scf-water4", "fock-alkane20", "des-sweep")
LIBRARY_TARGETS = ("mf_scf", "mf_baseline", "mf_fault")
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_build(cmd):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build step failed: " + " ".join(str(c) for c in cmd))


def build(build_root):
    """Builds the libraries, then the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT} (CMakeLists.txt, src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = build_root / "minifock"
    if not (lib_dir / "CMakeCache.txt").is_file():
        run_build(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run_build(["cmake", "--build", lib_dir, "-j", jobs, "--target", *LIBRARY_TARGETS])
    bin_dir = build_root / "perfbench"
    if not (bin_dir / "CMakeCache.txt").is_file():
        run_build(["cmake", "-S", BENCH_DIR, "-B", bin_dir,
                   "-DCMAKE_BUILD_TYPE=Release", f"-DMINIFOCK_BUILD_DIR={lib_dir}"])
    run_build(["cmake", "--build", bin_dir, "-j", jobs])
    return bin_dir / "perfbench"


def run_workload(binary, args, workload, build_root):
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.water_seed is not None:
        cmd.append(f"--water-seed={args.water_seed}")
    if args.density_seed is not None:
        cmd.append(f"--density-seed={args.density_seed}")
    if args.trace == 1:
        trace_dir = build_root / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={trace_dir / f'{workload}-seed{args.seed}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench ran over {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def compare_exact(workload, metrics, args):
    """Counts exact counters that differ from perfbench/expected.json."""
    expected = json.loads((BENCH_DIR / "expected.json").read_text())[workload]
    if workload == "scf-water4" and args.water_seed not in (None, expected["water_seed"]):
        print(f"exact counters: no baseline for water seed {args.water_seed}")
        return 0
    mismatches = 0
    for name, want in expected["counters"].items():
        got = metrics[name]["value"]
        if got != want:
            mismatches += 1
            print(f"EXACT MISMATCH {name}: expected {want!r}, got {got!r}")
    print(f"exact counters: {len(expected['counters']) - mismatches} of "
          f"{len(expected['counters'])} match perfbench/expected.json")
    return mismatches


def conform(workload, result, spec, args):
    """Checks the reported metrics against BENCHMARK.json and completes them."""
    listed = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail(f"{workload}: metric {name} [{m['unit']}] is not listed in "
                 "BENCHMARK.json with that unit")
    if args.trace == 1:
        metrics["exact.mismatches"] = {
            "value": compare_exact(workload, metrics, args), "unit": "count"}
        idle = [n for n in units if n not in metrics]
        if idle:
            print("not exercised by this workload (0): " + ", ".join(idle))
        for name in idle:
            metrics[name] = {"value": 0, "unit": units[name]}
    missing = [n for n in units if n not in metrics]
    if missing:
        fail(f"{workload}: perfbench did not report {', '.join(missing)}")
    result["metrics"] = {n: metrics[n] for n in units}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--water-seed", type=int, default=None,
                        help="water_cluster geometry seed of scf-water4 (default 2026)")
    parser.add_argument("--density-seed", type=int, default=None,
                        help="density seed of fock-alkane20 (default: --seed)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = run_workload(binary, args, workload, build_root)
        results[workload] = conform(workload, result, spec, args)
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
        return
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}/{n}": m for w, r in results.items()
                          for n, m in r["metrics"].items()}}
    print(json.dumps(merged))


if __name__ == "__main__":
    main()

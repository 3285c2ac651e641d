#!/usr/bin/env python3
"""Repo benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_droptail --seed 42 --seconds 10 --trace 0

Builds perfbench/ (Release, into .bench_build/) from the current sources,
runs one workload for the given host-time budget, passes the benchmark's
report through, and prints as the last line one JSON object with the
correctness verdict and the metrics BENCHMARK.json declares: its
`end_to_end` metrics with --trace 0, its `per_layer` metrics with --trace 1.
The full result (every metric, the host and build record) is also written
to .bench_build/results/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fiveg_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fiveg sources next to perfbench/ (src/CMakeLists.txt missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()

    work = os.path.join(BUILD, "work")
    results = os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden-dir", os.path.join(ROOT, "bench", "golden"),
           "--work-dir", work,
           "--checksums", os.path.join(ROOT, "perfbench", "checksums.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    full = json.loads(lines[-1])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(full, f, indent=1)

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the output")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

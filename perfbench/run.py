#!/usr/bin/env python3
"""Builds and runs the Zeus benchmark; prints one JSON result line last.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 8 --trace 0

The first run configures and builds `zeus_perfbench` (the library through
the repository's own CMakeLists.txt) under .bench_build/perfbench; later
runs rebuild incrementally. With --trace 0 the result carries every
end-to-end metric listed in BENCHMARK.json, with --trace 1 every per-layer
metric (0 where a layer is not exercised by the workload). The exit code is
non-zero when the build fails, an operation fails or an output check does
not hold.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "zeus_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing; run from the repository root" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "zeus_perfbench",
         "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    end_to_end, per_layer = declared_metrics()
    # Each run starts from an empty scratch dir (plan-persist dirs, spans).
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)

    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            raw = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if raw is None:
        fail("no result from the benchmark (exit code %d)" % proc.returncode)

    declared = per_layer if args.trace else end_to_end
    measured = raw["per_layer"] if args.trace else raw["end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail("metrics not declared in BENCHMARK.json: %s" % sorted(unknown))
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            fail("end-to-end metric %s was not measured" % m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail("metric %s has unit %s, declared %s"
                 % (m["name"], got["unit"], m["unit"]))
        # A layer the workload does not exercise reports 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    print(json.dumps({"correct": bool(raw["correct"]) and proc.returncode == 0,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

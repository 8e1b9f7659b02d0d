#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the repository's src/
library plus the benchmark program) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls rebuild incrementally. The program's report goes to standard output, and the last
line is one JSON object with the keys correct, attempted, failed and
metrics. It holds the end_to_end metrics of BENCHMARK.json with --trace 0
and its per_layer metrics with --trace 1. A per-layer metric of a layer the
workload does not exercise is reported as 0 and named in a "not measured"
line of the report. The script exits non-zero, without printing a result, if
the build or the run fails or an end-to-end metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", build_dir, "--target", "loom_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "loom_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", tmp_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("the program printed no result line")

    metrics = {}
    not_measured = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and args.trace:
            not_measured.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, listed in {m['unit']}")
        metrics[m["name"]] = got
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not_measured:
        print(f"not measured on {args.workload} (reported as 0): "
              + " ".join(not_measured))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

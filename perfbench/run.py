#!/usr/bin/env python3
"""Builds the hbmvolt benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign|tenants \
        --seed N --seconds S --trace 0|1

The binary (perfbench/hbmbench.cpp) is built in Release mode under
$CARGO_TARGET_DIR (default .bench_build) of the checkout; the first run
builds, later runs only check that the build is current.  Build output goes
to stderr, so the last line of stdout is the binary's JSON result.  The exit
code is the binary's: 0 when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD_DIR, "hbmbench")
# hbmbench itself stops after --seconds of measurement plus set-up; this
# only guards against a hang.
RUN_TIMEOUT_S = 175
# Keep git (run by run.py and by the library's configure step) from
# searching above the checkout.
ENV = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))


def build():
    """Configures (once) and builds hbmbench; raises on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=ENV, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "hbmbench", "-j", jobs],
        stdout=sys.stderr, env=ENV, check=True)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=ENV,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "tenants"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--describe", git_describe()],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: hbmbench printed no result", file=sys.stderr)
        return proc.returncode or 1
    # hbmbench's metric table must match what BENCHMARK.json declares.
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared_metrics(args.trace):
        print("run.py: hbmbench metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

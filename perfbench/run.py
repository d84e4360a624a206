#!/usr/bin/env python3
"""Builds the eroof end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 45 --trace 0

The library under ../src and perfbench.cpp in this directory are compiled
into $CARGO_TARGET_DIR (default .bench_build) on first use. Progress and the
per-run report go to stderr and to <build dir>/reports; the last line of
stdout is the benchmark binary's JSON result. The exit code is non-zero when
the build fails, the benchmark binary fails, or an output misses the
correctness gate.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_steady", "serve_churn", "dynamics_refresh")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no library sources at %s"
                           % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(out, "eroof_perfbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no %s" % binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke test only)")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report-dir", os.path.join(out, "reports")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected result keys")
    except (IndexError, ValueError):
        print("perfbench: benchmark binary printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

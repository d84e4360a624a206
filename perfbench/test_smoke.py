#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny input sizes.

Runs every workload the benchmark offers (those in BENCHMARK.json and
serve_churn) once untraced and once traced with --tiny and a one-second run,
and checks that the result line has exactly the contract's keys, that every
declared metric is emitted with its declared unit and a finite value, and
that the correctness gate passed.

    python3 perfbench/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0, label
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), "%s: metrics %s" % (
        label, sorted(set(got) ^ set(want)))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, "%s: %s unit" % (label, name)
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    overhead = [{"name": "trace.overhead.%s_pct" % m["name"], "unit": "%"}
                for m in bench["end_to_end"]]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for w in WORKLOADS:
        check(run(w, 0), bench["end_to_end"], w + " trace=0")
        check(run(w, 1), bench["per_layer"], w + " trace=1")
        print("ok", w)
    # The tracing overhead is reported as per-layer metrics.
    names = {m["name"] for m in bench["per_layer"]}
    assert all(m["name"] in names for m in overhead), "overhead metrics"
    print("smoke test passed")


if __name__ == "__main__":
    main()

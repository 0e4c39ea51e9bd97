#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at the tiny scale, untraced and
traced, and checks that each run exits 0, passes every output check and
prints every metric BENCHMARK.json names for that mode, with its unit. Then
checks that run.py fails fast, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits nonzero on the
first failure.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print("smoke_test: FAIL: " + message)
    sys.exit(1)


def run_tiny(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    label = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        fail("%s exited with %d:\n%s" % (label, done.returncode, done.stdout))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: output checks failed:\n%s" % (label, done.stdout))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        fail("%s: metrics %s, BENCHMARK.json names %s"
             % (label, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        value = metrics[name]
        if value.get("unit") != unit:
            fail("%s: %s unit %r, expected %r" % (label, name,
                                                  value.get("unit"), unit))
        if not isinstance(value.get("value"), (int, float)) or \
                not math.isfinite(value["value"]):
            fail("%s: %s value %r" % (label, name, value.get("value")))
    print("smoke_test: ok   %s (%d flows)" % (label, result["attempted"]))


def run_without_sources(config):
    """run.py in a copy holding only BENCHMARK.json and the benchmark."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in config["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = config["workloads"][0]["name"]
    start = time.monotonic()
    done = subprocess.run(
        config["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180, check=False)
    took = time.monotonic() - start
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("without sources: exit %d, stdout %r" % (done.returncode,
                                                      done.stdout))
    print("smoke_test: ok   no sources -> exit %d in %.1f s, no result"
          % (done.returncode, took))


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    for workload in config["workloads"]:
        run_tiny(workload["name"], 0, end_to_end)
        run_tiny(workload["name"], 1, per_layer)
    run_without_sources(config)
    print("smoke_test: all checks passed")


if __name__ == "__main__":
    main()

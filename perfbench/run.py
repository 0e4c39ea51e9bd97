#!/usr/bin/env python3
"""Repository benchmark: times one workload of the P-Net simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload packet-fig9 --seed 1 --seconds 30 --trace 0

Builds the simulator and the perfbench binary (Release, LTO) under
.bench_build/perfbench, then runs the workload's grid again and again, each
time in a fresh process, for about --seconds seconds. Each process builds its
inputs from --seed, runs the grid through exp::Runner::run, serialises the
report and checks the outputs (perfbench/main.cpp).

--trace 0 reports the medians of the end-to-end metrics, with the times
scaled to a reference host speed by a probe each process runs after its
grid; after each of those processes, SETUPS_PER_ROUND more stop where the
grid would start, so that setup_s is a median over many set-ups. --trace 1
alternates untraced and traced processes and reports the medians of the
per-layer metrics of the traced ones, after checking that each traced
process dispatched the same events, completed the same flows, delivered the
same bytes and produced the same report as the untraced one. The Chrome
trace of the last traced process is written under
.bench_build/perfbench/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

WORKLOADS = ("packet-fig9", "fsim-paper", "packet-rpc")

# name -> unit; every end-to-end metric is a median over the run's processes.
END_TO_END = {
    "wall_s": "s",
    "parallel_s": "s",
    "serial_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The end-to-end times are scaled to a reference host speed: the median
# over the run's processes times the speed ratio, REFERENCE_PROBE_S over the
# median time of the speed probe each process ran after its grid, to the
# power of the workload's sensitivity; setup_s is scaled by the speed ratio
# itself (README.md, "Host-speed probe"). REFERENCE_PROBE_S is the probe's
# time on the 4-vCPU VM the benchmark was defined on.
REFERENCE_PROBE_S = 0.035
TRIAL_TIMES = ("wall_s", "parallel_s", "serial_s")
# Sensitivity: how many times as much a workload's trial times move with
# the host's speed as the probe does, in relative terms, chosen from the
# spreads and medians of ten-seed sweeps rescaled with each candidate.
SENSITIVITY = {"packet-fig9": 1.5, "fsim-paper": 2.0, "packet-rpc": 1.5}

PER_LAYER = {
    "routing.compile_s": "s",
    "routing.ms_per_miss": "ms",
    "routing.misses": "count",
    "routing.hits": "count",
    "routing.hit_rate": "ratio",
    "routing.arena_mb": "MB",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.flows": "count",
    "sim.drops": "count",
    "sim.rtos": "count",
    "sim.retransmits": "count",
    "core.select_s": "s",
    "core.flow_start_s": "s",
    "core.harness_s": "s",
    "fsim.run_s": "s",
    "fsim.events": "count",
    "fsim.full_solves": "count",
    "fsim.fast_paths": "count",
    "fsim.fast_path_ratio": "ratio",
    "topo.build_s": "s",
    "exp.overhead_s": "s",
    "exp.worker_idle_frac": "ratio",
    "exp.report_s": "s",
    "exp.trial_errors": "count",
    "trace.overhead_frac": "ratio",
}

# Counts a traced process must reproduce exactly.
SAME_PROGRAM_KEYS = ("events", "flows_started", "flows_finished",
                     "delivered_bytes", "digest")

MIN_UNTRACED_RUNS = 3
SETUPS_PER_ROUND = 8
BUILD_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not (ROOT / "src" / "exp" / "runner.hpp").is_file():
        fail("simulator sources not found under " + str(ROOT / "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's temporary files (LTO partitions) stay in the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def git_commit():
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the simulator sources: names the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def launch(args, flag=None):
    """Runs the binary once; returns (JSON result, exit code). The result
    gains setup_s: from the launch of the process to its first
    Runner::run call."""
    cmd = [str(BINARY), "--workload=" + args.workload,
           "--seed=" + str(args.seed), "--scale=" + args.scale]
    if flag is not None:
        cmd.append(flag)
    launched_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s: %s" % (CHILD_TIMEOUT_S, " ".join(cmd)))
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("run exited with code %d: %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    result["setup_s"] = (result["runner_start_mono_ns"] - launched_ns) * 1e-9
    return result, done.returncode


def run_once(args, trace_out=None):
    """One process: one run of the grid. Returns its JSON result."""
    flag = None if trace_out is None else "--trace-out=" + str(trace_out)
    result, code = launch(args, flag)
    if result["build_type"] != "Release" or not result["lto"]:
        fail("refusing to time a %s build without LTO" % result["build_type"])
    if code != 0 and not result["failures"]:
        result["failures"].append("exit code %d" % code)
    return result


def setup_once(args):
    """One process that stops where the grid would start; its set-up time."""
    result, code = launch(args, "--setup-only=1")
    if code != 0:
        fail("set-up-only run exited with code %d" % code)
    return result["setup_s"]


def measure(args):
    """Runs processes for about args.seconds. Returns (untraced, traced,
    set-up times)."""
    untraced, traced, setups = [], [], []
    trace_out = None
    if args.trace:
        trace_out = BUILD / "traces" / ("%s-seed%d.json" % (args.workload,
                                                           args.seed))
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    while True:
        untraced.append(run_once(args))
        setups.append(untraced[-1]["setup_s"])
        if args.trace:
            traced.append(run_once(args, trace_out))
        else:
            setups += [setup_once(args) for _ in range(SETUPS_PER_ROUND)]
        elapsed = time.monotonic() - start
        per_round = elapsed / len(untraced)
        enough = len(untraced) >= (1 if args.trace else MIN_UNTRACED_RUNS)
        if enough and elapsed + per_round > args.seconds:
            return untraced, traced, setups


def check(untraced, traced):
    """Output checks across processes; returns the list of failures."""
    failures = []
    for i, result in enumerate(untraced + traced):
        failures += ["process %d: %s" % (i, f) for f in result["failures"]]
    reference = untraced[0]
    for i, result in enumerate(untraced[1:] + traced, start=1):
        for key in SAME_PROGRAM_KEYS:
            if result[key] != reference[key]:
                kind = "traced" if result["traced"] else "untraced"
                failures.append(
                    "%s process %d: %s %r differs from %r (same seed)"
                    % (kind, i, key, result[key], reference[key]))
    return failures


def median(results, key):
    return statistics.median(r[key] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: the smoke-test size of every grid")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    untraced, traced, setups = measure(args)
    failures = check(untraced, traced)
    first = untraced[0]
    provenance = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "host_cpus": len(os.sched_getaffinity(0)),
        "runner_threads": first["runner_threads"],
        "build_type": first["build_type"], "compiler": first["compiler"],
        "lto": first["lto"], "commit": git_commit(),
        "src_sha256": source_digest(),
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    print("# %s seed=%d: %d untraced + %d traced processes, %d cells, "
          "report digest %s" % (args.workload, args.seed, len(untraced),
                                len(traced), first["cells"], first["digest"]))
    print("# failed_frac %.6g ratio (%d of %d flows%s not completed)"
          % (failed / attempted, failed, attempted,
             " or RPCs" if args.workload == "packet-rpc" else ""))
    for failure in failures:
        print("# check failed: " + failure)

    if args.trace:
        values = {}
        for name in PER_LAYER:
            if name != "trace.overhead_frac":
                values[name] = statistics.median(r["layers"][name]
                                                 for r in traced)
        values["trace.overhead_frac"] = (
            median(traced, "wall_s") / median(untraced, "wall_s") - 1.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        trial_s = median(traced, "parallel_s") + median(traced, "serial_s")
        shares = ", ".join(
            "%s %.1f%%" % (name, 100.0 * values[name] / trial_s)
            for name in ("routing.compile_s", "sim.run_s", "fsim.run_s",
                         "core.select_s", "core.flow_start_s",
                         "core.harness_s", "topo.build_s"))
        print("# self time as a share of summed trial wall time: " + shares)
    else:
        speed = REFERENCE_PROBE_S / median(untraced, "probe_s")
        metrics = {}
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                value = statistics.median(setups) * speed
            elif name in TRIAL_TIMES:
                value = (median(untraced, name) *
                         speed ** SENSITIVITY[args.workload])
            else:
                value = median(untraced, name)
            metrics[name] = {"value": value, "unit": unit}
        for name in tuple(END_TO_END) + ("probe_s",):
            print("# per process %-14s %s" % (
                name, " ".join("%.6g" % r[name] for r in untraced)))
        print("# setup_s is the median of %d set-ups (%.6g s unscaled)"
              % (len(setups), statistics.median(setups)))
        print("# times below are medians x %.6g (reference probe %g s / "
              "median probe), trial times to the power %g"
              % (speed, REFERENCE_PROBE_S, SENSITIVITY[args.workload]))
    for name, metric in metrics.items():
        print("# %-22s %.6g %s" % (name, metric["value"], metric["unit"]))

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

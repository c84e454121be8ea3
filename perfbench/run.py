#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bc-irgs|pc-topk
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/ (and through it the
farmer libraries) into .bench_build/perfbench with CMake, Release
build; later runs only rebuild what changed. Build output goes to
stderr.

The run prints the perfbench binary's report (host context, one line
per metric with unit and sample count) and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and
its per-layer metrics with --trace 1. The traced run also writes the
benchmark's spans as a Chrome trace, validates it with
tools/check_trace.py, and adds each layer's self time (span time not
covered by child spans) as self.<layer>_s.

Exit status: 0 when every correctness check passed; 1 when one failed
(the JSON line is still printed); 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Layers whose self time the traced run reports. A span's layer is its
# name's prefix ("farm.lease" -> farm); the miner's own spans ("mine",
# "merge", "remap", "task", ...) carry no prefix and belong to core.
LAYERS = ("dataset", "core", "minelb", "snapshot", "farm", "serve", "util")

# Every span the benchmark records around a layer call, plus the
# miner's "mine", "merge" and "remap" from the attached miner session.
REQUIRED_SPANS = (
    "dataset.load", "dataset.discretize", "dataset.transpose",
    "core.mine", "core.mine_1t", "mine", "merge", "remap",
    "minelb.probe", "snapshot.encode", "snapshot.decode",
    "farm.plan", "farm.lease_wait", "farm.finalize", "farm.seam",
    "farm.lease", "serve.setup", "serve.index_build", "serve.start",
    "serve.window", "serve.bisect", "serve.probe", "util.kernels",
    "bench.run",
)


def die(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return False


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("no farmer source tree here (missing %s)" % needed)
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            die("configuring the benchmark failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        die("building the benchmark failed")


def self_times(trace_path):
    """Seconds of self time per layer: for every complete span, its
    duration minus the union of its direct children on the same lane."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    by_lane = {}
    for e in events:
        if e.get("ph") == "X":
            by_lane.setdefault(e["tid"], []).append(
                (float(e["ts"]), float(e["ts"]) + float(e["dur"]), e["name"]))
    totals = {layer: 0.0 for layer in LAYERS}
    for spans in by_lane.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        # children[i]: intervals of the spans directly inside span i.
        children = [[] for _ in spans]
        stack = []
        for i, (start, end, _) in enumerate(spans):
            while stack and spans[stack[-1]][1] <= start:
                stack.pop()
            if stack:
                children[stack[-1]].append((start, end))
            stack.append(i)
        for i, (start, end, name) in enumerate(spans):
            covered = 0.0
            reach = start
            for c_start, c_end in children[i]:
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            layer = name.split(".", 1)[0] if "." in name else "core"
            if layer in totals:
                totals[layer] += (end - start - covered) / 1e6
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = "%s-%s-%d" % (args.workload,
                        "default" if args.seed is None else args.seed,
                        args.trace)
    out_path = os.path.join(WORK_DIR, "result-%s.json" % tag)
    trace_path = os.path.join(WORK_DIR, "trace-%s.json" % tag)
    for stale in (out_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [BINARY, "--workload", args.workload, "--work-dir", WORK_DIR,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die("the run exceeded %d s" % RUN_TIMEOUT_S)
    if code not in (0, 1) or not os.path.isfile(out_path):
        die("perfbench exited with status %d" % code)
    with open(out_path, encoding="utf-8") as f:
        result = json.load(f)

    metrics = result["metrics"]
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if args.trace:
        attempted += 1
        checker = os.path.join(ROOT, "tools", "check_trace.py")
        ok = os.path.isfile(trace_path) and run_quiet(
            [sys.executable, checker, "--require", ",".join(REQUIRED_SPANS),
             trace_path], 60)
        if ok:
            for layer, seconds in self_times(trace_path).items():
                metrics["self.%s_s" % layer] = {
                    "value": seconds, "unit": "s", "samples": 1}
                print("  %-28s %14.6g %-6s (n=1)" % (
                    "self.%s_s" % layer, seconds, "s"))
        else:
            failed += 1
            sys.stderr.write("perfbench: FAILED: the trace did not pass "
                             "tools/check_trace.py\n")

    selected = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s is in %s, BENCHMARK.json says %s" %
                (m["name"], got["unit"], m["unit"]))
        selected[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

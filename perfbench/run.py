#!/usr/bin/env python3
"""Builds and runs the jpar benchmark (see NOTES.md).

    python3 perfbench/run.py --workload paper_threaded --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run builds the jpar libraries,
the jpar_worker binary and the harness from source into .bench_build/.
Each run generates its corpus from --seed, computes reference answers in
a separate process, runs the workload for --seconds seconds, and prints
the harness's `note:` lines and, last, one JSON result line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

    python3 perfbench/run.py --selftest

builds and runs the harness self-tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
WORKLOADS = ("paper_threaded", "service_churn", "dist_cluster")
# Harness deadline per process; a run must end within 180 s.
TIMEOUT_S = 170


def env():
    """The environment for child processes: temp files stay in the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("jpar sources not found: run from a checkout of the repository")
    configure = ["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env()).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", CMAKE_BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, env=env()).returncode != 0:
        fail("build failed")


def harness(args):
    """Runs the harness; returns its stdout, or exits on any failure."""
    exe = os.path.join(CMAKE_BUILD, "perfbench_harness")
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              timeout=TIMEOUT_S, text=True, env=env())
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(args[:1]))
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    if opts.selftest:
        build(["perfbench_selftest"])
        exe = os.path.join(CMAKE_BUILD, "perfbench_selftest")
        sys.exit(subprocess.run([exe], cwd=BUILD, env=env()).returncode)
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    build(["perfbench_harness", "jpar_worker"])
    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    try:
        refs = os.path.join(run_dir, "refs.txt")
        harness(["reference"] + common + ["--out", refs])
        out = harness(["run"] + common + [
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace),
            "--refs", refs, "--dir", os.path.join(run_dir, "data"),
            "--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (opts.workload, opts.seed))])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    if not result["correct"]:
        print("run.py: %d of %d answers failed" %
              (result["failed"], result["attempted"]), file=sys.stderr)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Host-throughput benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the repo's
libraries from ../src) into .bench_build/ at the repository root, then runs
one workload in its own process:

    python3 perfbench/run.py --workload hpc_wide --seed 1 --seconds 36 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the per-layer
metrics are reported instead of the end-to-end ones, and the traced run's
spans and profile are written to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("fed_scatter", "hpc_wide", "service_campaign")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the library sources and the benchmark, for provenance."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing; the benchmark builds the libraries from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result lines.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", code=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    digest = source_digest()
    build()
    cmd = [str(BUILD / "hostbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--expected", str(HERE / "expected.json"),
           "--source-digest", digest]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", code=1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build mcsim's host-speed benchmark from source and run one workload.

Run from the root of a checkout:

    python3 hostbench/run.py --workload paper-quick --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --self-test

The build goes to .bench_build/hostbench (RelWithDebInfo, the default
tree's flags); build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run also writes
its spans to .bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("paper-quick", "checked-fuzz", "litmus-mc")
RUN_TIMEOUT_S = 175


def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "hostbench")


def source_digest():
    """sha256 over the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "tests", "golden", "quick.json")]
    for top in ("src", "hostbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(folder, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    golden = os.path.join(ROOT, "tests", "golden", "quick.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mcsim sources under " + os.path.join(ROOT, "src"))
    if not os.path.exists(golden):
        fail("no golden results at " + golden)

    binary = build()
    cmd = [binary, "--golden", golden, "--commit", commit(),
           "--source", source_digest()]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(ROOT, ".bench_build", "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out", os.path.join(
                spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One-command KGQAn benchmark.

Builds the benchmark (this directory's CMake project, which compiles the
repository's ../src) into .bench_build/ at the repository root, then runs
one workload and prints its result as the last line of stdout:

    python3 kgqabench/run.py --workload lcquad-serial --seed 1 --seconds 40 --trace 0
    python3 kgqabench/run.py --self-test

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes the span file to .bench_build/traces/.  The exit code is the
benchmark's own: non-zero when the build fails, a correctness check fails,
or the open-loop dispatcher fell behind schedule.  See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "kgqabench")
BINARY = os.path.join(BUILD, "kgqabench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[kgqabench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds in Release mode; incremental after the first run."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def source_digest():
    """sha256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "kgqabench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 2
    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-file", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds paper_bench from this checkout's sources and runs one workload.

Run from anywhere inside a checkout:

    python3 paperbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the checkout root (configured once,
incremental afterwards); build output goes to stderr. paper_bench's stdout is
passed through unchanged, so its last line is the result JSON. With
--trace 1 the spans are written to .bench_build/spans/. The exit code is
nonzero when the build fails, an answer is wrong or an op fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", os.path.join(ROOT, "paperbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "--target",
                           "paper_bench", "-j", jobs], stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_mix", "paper_mix_analyzed",
                                 "wire_sync"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, few ops, every answer check")
    args = parser.parse_args()

    if not build():
        print("paperbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "paper_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("paperbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

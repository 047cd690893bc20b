#!/usr/bin/env python3
"""Build and run the alpha-equivalence index benchmark.

    python3 perfbench/run.py --workload query-mapped --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
(Release) into .bench_build/perfbench; later runs only check that the
build is up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and program temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("error: the repository sources (CMakeLists.txt, src/) are "
                 "not next to perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen,
                           stdout=sys.stderr, check=True, env=ENV)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True, env=ENV)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    build()
    exe = os.path.join(BUILD, "perfbench")
    hma = os.path.join(BUILD, "hma", "hma")
    if a.self_test:
        cmd = [exe, "--self-test"]
    else:
        cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--hma", hma]
    os.chdir(ROOT)
    return subprocess.run(cmd, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())

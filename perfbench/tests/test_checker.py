#!/usr/bin/env python3
"""Checker self-test: every injected wrong answer must be reported.

    python3 perfbench/tests/test_checker.py

Runs `perfbench/run.py --self-test`, which feeds the benchmark's checks
a flipped present bit, a count off by one, a representative from
another class, a class-table count off by one and one merged
subexpression class, next to the true answers. Exits 0 only if each
wrong answer is rejected and each true one passes.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
KINDS = ["flipped present bit", "count off by one",
         "representative from another class", "class table count off by one",
         "one merged subexpression class"]


def main():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                         cwd=ROOT, capture_output=True, text=True)
    print(out.stdout, end="")
    lines = out.stdout.splitlines()
    missing = [k for k in KINDS
               if not any(l.startswith(k) and l.endswith("rejected (ok)") for l in lines)]
    if out.returncode != 0 or missing:
        print("FAILED: not rejected: " + ", ".join(missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds perfbench and runs one measurement pinned to one CPU.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build uses CARGO_TARGET_DIR (default: .bench_build). The run is pinned
to the first CPU the process may use: decide_mix's closed loop then wakes
its daemon worker on the same CPU instead of on another core, whose idle
state and neighbours made round trips vary by 2x between runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
    )
    if build.returncode != 0:
        print(f"run.py: building perfbench failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, target, "release", "perfbench")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build perfbench from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload churn-onesig --seed 1 --seconds 35 --trace 0

The Go toolchain's caches, the binary, artifacts and span files all live
under .bench_build/ at the repository root, so a run reads and writes
nothing outside the checkout. Build output goes to standard error; the
benchmark's own standard output (whose last line is the result) passes
through unchanged, as does its exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=os.path.join(OUT, "tmp"),  # the toolchain's work directories
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),  # toolchain telemetry
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [binary, "-scratch", os.path.join(OUT, "scratch")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

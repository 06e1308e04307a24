#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark program (see perfbench/README.md).
The Go build cache, module cache and binary live under .bench_build/ in the
checkout, so nothing is written outside it. Build output goes to standard
error; the program's last line of standard output is its JSON result. The
exit code is non-zero, with no result printed, when the build or the run
fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

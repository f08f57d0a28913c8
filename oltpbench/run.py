#!/usr/bin/env python3
"""Build the oltpbench binary from this checkout's sources, then run it.

Run from the repository root:

    python3 oltpbench/run.py --workload tpcb --seed 1 --seconds 10 --trace 0

The build and Go's caches live under $CARGO_TARGET_DIR (default
.bench_build) in the current directory, so nothing is written outside it.
Arguments are passed to the binary unchanged; see oltpbench/README.md.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
    )
    binary = os.path.join(out, "oltpbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the pipeline benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload bookinfo-history --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout. The Go program is built from source
into .bench_build/ with every Go cache kept inside the checkout, then run;
its standard output (ending in the one-line JSON result) and exit code are
passed through. Without the repository's go.mod one directory up, the
build fails and the command exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """Environment for the go tool: caches, home and config inside the
    checkout, no network, no toolchain switch."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a repository checkout" % ROOT, file=sys.stderr)
        return 2
    out = os.path.join(BUILD, "perfbench")
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                            "-seconds", str(args.seconds), "-trace", str(args.trace),
                            "-out", out], cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench join benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 40 --trace 0

All arguments go to the benchmark binary (see perfbench/README.md). The Go
build cache, the binary and the Chrome traces of traced runs go under
$CARGO_TARGET_DIR (default .bench_build) in the current directory, so a run
reads and writes nothing outside the checkout. When the build fails -- for
instance because the rackjoin module is not beside perfbench -- the script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go_env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        # The Go command keeps telemetry counters under the user config
        # directory; point it into the build directory as well.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=go_env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "-out", os.path.join(out, "traces")] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload discover-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, module cache and the
binary live under .bench_build/ in the current directory, so a run reads
and writes nothing outside the checkout. All arguments are passed to the
benchmark binary (see perfbench/main.go); its exit code is returned.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        # The go command keeps its telemetry counters under the user
        # config directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        # The cold and overload workloads keep ~2 GB live (the result cache
        # holds ~1 GB of decrypted profiles); without a soft limit the heap
        # doubles to over 4 GB before the collector runs.
        GOMEMLIMIT="3GiB",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

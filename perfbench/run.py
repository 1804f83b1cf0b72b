#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forkjoin --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py noise --workload serve --runs 10

It compiles cabserve and the perfbench command from the checkout's sources
into .bench_build/bin, keeping the Go build cache and temporary files under
.bench_build as well, then passes every argument on to perfbench and exits
with its status. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
    })
    for d in (bin_dir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (root, ["go", "build", "-o", os.path.join(bin_dir, "cabserve"), "./cmd/cabserve"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    perfbench = [os.path.join(bin_dir, "perfbench")] + sys.argv[1:]
    return subprocess.run(perfbench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

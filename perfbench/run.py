#!/usr/bin/env python3
"""Builds the layer-by-layer benchmark and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8

The first form prints one workload's metrics, the last line being the JSON
result. `--workload all` runs every workload untraced and traced and
prints every end-to-end and per-layer metric. The exit code is nonzero
when the build fails or any correctness, digest or counter check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["casestudy", "audit", "textlog", "serve"]
# One run's own limit; the benchmark ends well within it.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark (release) and returns the path of its binary."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: the build failed")
    return os.path.join(target, "release", "microsampler-perfbench")


def run(binary, args):
    """Runs the benchmark binary with `args`, passing its output through."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


def main(argv):
    binary = build()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2:]
        if "--trace" in rest:
            j = rest.index("--trace")
            rest = rest[:j] + rest[j + 2:]
        status = 0
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--trace", trace] + rest
                status = max(status, run(binary, args))
        return status
    return run(binary, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run hyperroute's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid|service-mix \
        --seed N --seconds S --trace 0|1

Builds three programs from source with cargo (into $CARGO_TARGET_DIR,
default .bench_build): the `hyperroute-grid` binary of the repository, the
benchmark binary, and the benchmark again with the engine's `profile`
phase timers in a separate `profiling` profile (used by --trace 1 only).
Then runs the benchmark binary, whose last line of output is the JSON
result. Exits nonzero without a result when the sources are not there or
do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def cargo(args, cwd):
    """Run one cargo build, its output on stderr; exit on failure."""
    cmd = ["cargo", "build", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    argv = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("run.py: no Cargo.toml at %s; not a source checkout\n" % ROOT)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    os.environ["CARGO_TARGET_DIR"] = target

    # All three builds run every time (a no-op once built), so the first
    # run of a checkout pays for them and later runs start at once.
    cargo(["--release", "-p", "hyperroute-grid", "--bin", "hyperroute-grid"], ROOT)
    cargo(["--release", "--manifest-path", MANIFEST], ROOT)
    cargo(["--profile", "profiling", "--features", "profile", "--manifest-path", MANIFEST], ROOT)
    profile_bin = os.path.join(target, "profiling", "hyperroute-perfbench")

    cmd = [
        os.path.join(target, "release", "hyperroute-perfbench"),
        *argv,
        "--grid-bin", os.path.join(target, "release", "hyperroute-grid"),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--profile-bin", profile_bin,
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_lenet5 --seed 1 --seconds 50 --trace 0

Arguments are passed through to the `perfbench` binary (see
src/main.rs). Build output goes to standard error, so the last line of
standard output is the binary's JSON result. The exit code is the
build's when the build fails, and the binary's otherwise; a failed
check exits nonzero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    # Cargo resolves a relative CARGO_TARGET_DIR against the working
    # directory, as os.path.join does here.
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(HERE, "out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

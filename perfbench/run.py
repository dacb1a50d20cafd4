#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), the dataset image is cached in
.bench_data and traced runs write their spans to .bench_out. The last line
of standard output is the JSON result; the exit code is non-zero when the
build fails, the arguments are wrong, or any answer fails its audit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    version = rustc.stdout.strip() or "unknown"
    binary = os.path.join(target, "release", "perfbench")
    # The image is generated (once per checkout) in a process of its own.
    prepare = subprocess.run([binary, "--prepare"], env=env, stdout=sys.stderr)
    if prepare.returncode != 0:
        return prepare.returncode
    return subprocess.run([binary, *sys.argv[1:], "--rustc", version], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Both the `thermal-neutrons` binary
(the `serve` daemon under test) and the benchmark are built in release
mode into $CARGO_TARGET_DIR (default: perfbench/target), offline. The
benchmark's last line of standard output is its JSON result; build
output goes to standard error. Spans of traced runs are written under
$CARGO_TARGET_DIR/perfbench/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, extra, env):
    command = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    missing = [p for p in ("Cargo.toml", "src", "crates") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: the program's sources are not here (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(os.path.join(ROOT, "Cargo.toml"), ["--bin", "thermal-neutrons"], env):
        print("perfbench: building thermal-neutrons failed", file=sys.stderr)
        return 1
    if not build(os.path.join(HERE, "Cargo.toml"), [], env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--server-bin", os.path.join(release, "thermal-neutrons"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Serve-path benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 8 --trace 0

Builds the `dbcatcher` daemon binary and the `perfbench` harness from
source (release profile, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one measurement. The harness prints the result
as the last line of stdout; build output and progress go to stderr.
Scratch files (daemon WAL and snapshots, span files) live in
`.bench_work/`.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("steady", "wide-faulted", "durable")
# Ceiling of one measurement after the build: the harness is killed, with
# every daemon it started, if it has not finished by then.
HARNESS_TIMEOUT_S = 165


def build(root, env):
    """Builds the daemon and the harness; returns their paths or None."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "dbcatcher-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "dbcatcher"), os.path.join(release, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binaries = build(root, env)
    if binaries is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    daemon, harness = binaries

    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--daemon", daemon, "--work", work]
    # A session of its own, so stopping it takes down the daemons too.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)

    def kill_all():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def stop_all(signum, _frame):
        kill_all()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_all)
    signal.signal(signal.SIGINT, stop_all)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_all()
        print(f"run.py: harness exceeded {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

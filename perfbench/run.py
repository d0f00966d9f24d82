#!/usr/bin/env python3
"""Builds omislice and the benchmark harness, then runs one benchmark run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: locate-bigtrace, locate-verify, serve-mixed. `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer metrics of the
separate traced run. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; build output
and the human-readable tables go to standard error. The exit code is 0
only when every output check passed.

Everything the run writes stays under `CARGO_TARGET_DIR` (default
`.bench_build` in the checkout): the two builds and a per-run scratch
directory for saved traces, removed when the run ends.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("locate-bigtrace", "locate-verify", "serve-mixed")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cargo_build(args, env):
    """Runs one offline release build; build output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}", 3)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", 3)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    # The program is built from the checkout's own sources.
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"no omislice sources next to {HERE}", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["--bin", "omislice"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")], env)

    release = os.path.join(target, "release")
    work = os.path.join(target, f"perfbench-work-{os.getpid()}")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--server-bin", os.path.join(release, "omislice"),
        "--work-dir", work,
    ]
    # The harness and the server it starts share a new process group, so
    # a run stopped from outside still takes the server down with it.
    harness = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)

    def stop(signum, _frame):
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = harness.communicate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()

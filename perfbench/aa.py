#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on one or two checkouts, alternating
run by run, and prints each metric's median and quartiles per side.

Usage (from the root of a checkout):

    python3 perfbench/aa.py --workload <name> [--runs 10] [--seconds 20]
                            [--trace 0|1] [--seed 1] [--other <checkout>]

Run i of every side uses seed `--seed + i`, so both sides see the same
inputs. Without `--other` the same checkout is run twice per seed (an A/A
comparison: any difference between the sides is noise). With `--other`,
side B is that checkout, built into its own `.bench_build`. For each
metric the table shows, per side, the median, the first and third
quartiles, and the quartile spread as a share of the median; the last
column is side B's median relative to side A's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"aa: run failed ({root}, seed {seed}, exit {done.returncode})")
    return json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other", help="second checkout (side B); default: this one again")
    a = p.parse_args()

    sides = [os.path.dirname(HERE), os.path.abspath(a.other or os.path.dirname(HERE))]
    values = [{}, {}]
    for i in range(a.runs):
        for s, root in enumerate(sides):
            out = run_once(root, a.workload, a.seed + i, a.seconds, a.trace)
            if not out["correct"]:
                sys.exit(f"aa: output check failed ({root}, seed {a.seed + i})")
            for name, m in out["metrics"].items():
                values[s].setdefault(name, []).append(m["value"])
            print(f"aa: run {i + 1}/{a.runs} side {'AB'[s]} done", file=sys.stderr)

    print(f"{a.workload}: {a.runs} runs per side, seeds {a.seed}..{a.seed + a.runs - 1}")
    print(f"{'metric':<26} {'side':<4} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'B/A':>7}")
    for name in values[0]:
        med_a = spread(values[0][name])[0]
        for s in (0, 1):
            med, q1, q3, rel = spread(values[s][name])
            shift = f"{med / med_a:7.3f}" if s == 1 and med_a else ""
            print(f"{name:<26} {'AB'[s]:<4} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.3f} {shift:>7}")


if __name__ == "__main__":
    main()

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark command of BENCHMARK.json once per seed, one run after
another, and prints for each end-to-end metric the median, the quartiles
and the spread (Q3 - Q1) / median next to the metric's bound.  Use it to
check that the benchmark is steady before comparing two commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)

    values: dict = {m["name"]: [] for m in definition["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = definition["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(definition["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            print(f"seed {seed}: failed run\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)

    worst = 0.0
    for m in definition["end_to_end"]:
        q1, q2, q3 = stats.quartiles(values[m["name"]])
        share = stats.spread(values[m["name"]])
        worst = max(worst, share / m["bound"])
        print(f"{m['name']:<16} median {q2:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
              f"spread {share:.4f}  bound {m['bound']}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The foldscope benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, or `all` to run each in turn in this
one process (so peak_rss_mb is then the high-water mark so far).  The
run builds the workload's inputs from the seed, repeats one unit of it
(the library caches cleared before it) for about S seconds, checks every
result, and prints a table followed by one JSON line with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the library's
module boundaries are wrapped and they are the per-layer ones, the spans
are written to .bench_trace/, and the run is incorrect unless two traced
units give identical counts.  The exit code is 0 only for a correct run.

Times are reported at reference speed (see speed.py): each interval is
scaled by how fast fixed reference kernels ran alongside it, which takes
out the host's changing load.  Raw seconds are printed in the table.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=31337)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "foldscope" / "__init__.py").is_file():
        print(f"foldscope sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The benchmark runs single-threaded: the library's sequential path, and
    # no BLAS thread pool (the library makes no BLAS calls; starting the
    # pool at numpy import only adds noise to set-up time).  Set-up child
    # processes inherit these settings.
    os.environ.pop("FOLDSCOPE_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"

    import numpy

    import foldscope
    import harness

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in definition["workloads"]}
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        env = {"workload": name, "why": why[name], "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "foldscope": foldscope.__version__}
        print("env " + json.dumps(env))
        results[name] = harness.run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), wanted)
    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Set-up cost in a fresh process: `python3 setup_probe.py <workload> <seed>`.

Times importing foldscope and building the workload's evaluator and
inputs, then samples the machine's speed with the reference kernels,
and prints {"setup_s": seconds, "speed": speed} as one JSON line.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports foldscope and numpy)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.build(name, seed)
    setup_s = time.perf_counter() - _start

    import speed
    import stats

    speed.sample_speed()  # the first run also warms the kernels up
    rates = [speed.sample_speed() for _ in range(8)]
    print(json.dumps({"setup_s": setup_s, "speed": stats.median(rates)}))


if __name__ == "__main__":
    main()

"""Timing, tracing and checking of one workload run.

Everything runs in this one process, without threads; only set-up time
is measured in fresh child processes, one after another.  Times are
taken on the SpeedClock's work clock and reported at reference speed.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from foldscope import verification

import layers
import speed
import stats
import workloads
from tracing import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
SPAN_UNITS = 2
MAX_ERRORS_SHOWN = 5


@dataclass
class Unit:
    """One timed repetition of a workload's operations."""

    wall: float = 0.0  # seconds at reference speed, summed over the calls
    raw: float = 0.0  # work-clock seconds, summed over the calls
    real: float = 0.0  # elapsed seconds, checks and probes included
    start: float = 0.0
    end: float = 0.0
    peak_rss_mb: float = 0.0  # the process's high-water mark when the unit ended
    latencies: list = field(default_factory=list)
    cases: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # traced units only
    layer_metrics: dict = field(default_factory=dict)  # traced units only


def run_unit(ops, clock, tracer=None) -> Unit:
    """Time each call on the work clock, then check its result (untimed)."""
    unit = Unit()
    began = time.perf_counter()
    if tracer is not None:
        tracer.reset()
    unit.start = clock.now()
    for i, op in enumerate(ops):
        if op.cold:
            verification.clear_caches()
        if tracer is not None:
            tracer.request = i
        a, b = clock.now(), None
        try:
            result = op.call()
            b = clock.now()
            cases, error = op.check(result)
        except Exception:
            b = b if b is not None else clock.now()
            cases, error = 0, traceback.format_exc()
        latency = clock.scaled(a, b)
        unit.latencies.append(latency)
        unit.wall += latency
        unit.raw += b - a
        unit.cases += cases
        if error is not None:
            unit.failed += 1
            unit.errors.append(f"{op.kind}: {error}")
    unit.end = clock.now()
    unit.real = time.perf_counter() - began
    unit.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        unit.spans = tracer.spans
        unit.layer_metrics = layers.layer_metrics(tracer.spans, tracer.counts,
                                                  clock.speed(unit.start, unit.end))
    return unit


def measure(ops, clock, seconds: float, min_units: int, tracer=None) -> list:
    """Repeat units until another would overrun `seconds` (at least min_units).

    Traced units keep their spans only for the first SPAN_UNITS of them,
    which bounds the memory and the size of the written trace.
    """
    began = time.perf_counter()
    units: list = []
    while len(units) < min_units or (
            time.perf_counter() - began + stats.median(u.real for u in units) <= seconds):
        units.append(run_unit(ops, clock, tracer))
        if len(units) > SPAN_UNITS:
            units[-1].spans = []
    return units


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time at reference speed over fresh child processes."""
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        values.append(probe["setup_s"] * probe["speed"])
    return stats.median(values)


def end_to_end(seconds: float, ops, clock) -> tuple[dict, list]:
    """Every end-to-end metric but setup_s, from untraced units."""
    units = measure(ops, clock, seconds, min_units=1)
    wall = stats.median(u.wall for u in units)
    latencies = [x for u in units for x in u.latencies]
    metrics = {
        "wall_s": wall,
        "cases_per_s": stats.median(u.cases for u in units) / wall,
        "queries_per_s": len(ops) / wall,
        "query_p50_ms": stats.median(latencies) * 1e3,
        "query_p99_ms": stats.percentile(latencies, 99) * 1e3,
        # after the first unit: later units add allocator fragmentation
        # that depends on how many units fit in the run
        "peak_rss_mb": units[0].peak_rss_mb,
    }
    return metrics, units


def tail_kinds(ops, units, q: float = 99) -> dict:
    """Share of each operation kind among the latencies at or above the
    q-th percentile: which calls a tail metric such as query_p99_ms covers."""
    pairs = [(x, op.kind) for u in units for x, op in zip(u.latencies, ops)]
    cut = stats.percentile([x for x, _ in pairs], q)
    tail = [kind for x, kind in pairs if x >= cut]
    return {kind: tail.count(kind) / len(tail) for kind in sorted(set(tail))}


def per_layer(name: str, seed: int, seconds: float, ops, clock,
              trace_dir: Path = ROOT / ".bench_trace") -> tuple[dict, list, list]:
    """Untraced units for a third of the time, then at least two traced ones.

    Also returns the count metrics that differ between traced units; the
    run is incorrect unless that list is empty.
    """
    untraced = measure(ops, clock, seconds / 3, min_units=1)
    with Tracer(clock.now) as tracer:
        layers.instrument(tracer)
        traced = measure(ops, clock, seconds * 2 / 3, min_units=2, tracer=tracer)
    per_unit = [u.layer_metrics for u in traced]
    metrics = {key: stats.median(m[key] for m in per_unit) for key in per_unit[0]}
    mismatches = []
    for key in layers.COUNTS:
        seen = [m[key] for m in per_unit]
        metrics[key] = seen[0]
        if len(set(seen)) > 1:
            mismatches.append(f"{key}: {seen}")
    traced_wall = stats.median(u.wall for u in traced)
    untraced_wall = stats.median(u.wall for u in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    write_spans(trace_dir / f"{name}-seed{seed}.jsonl",
                [s for u in traced[:SPAN_UNITS] for s in u.spans])
    return metrics, untraced + traced, mismatches


def run_workload(name: str, seed: int, seconds: float, trace: bool, wanted: list) -> dict:
    """Run one workload, print its table and return the result object.

    `wanted` lists the metrics to report, as in BENCHMARK.json.
    """
    ops = workloads.build(name, seed)
    # set-up is timed first, so no probe of this process competes with it
    setup_s = None if trace else measure_setup(name, seed)
    with speed.SpeedClock() as clock:
        if trace:
            values, units, mismatches = per_layer(name, seed, seconds, ops, clock)
        else:
            values, units = end_to_end(seconds, ops, clock)
            values["setup_s"] = setup_s
            mismatches = []
        probes = clock.probe_count
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    attempted = sum(len(u.latencies) for u in units)
    failed = sum(u.failed for u in units)

    walls = [u.wall for u in units]
    print(f"workload {name}  seed {seed}  units {len(units)}  speed probes {probes}  "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    print(f"  unit wall at reference speed: median {stats.median(walls):.4f} s, "
          f"max {max(walls):.4f} s; raw median "
          f"{stats.median(u.raw for u in units):.4f} s")
    if not trace:
        shares = ", ".join(f"{kind} {share:.2f}"
                           for kind, share in tail_kinds(ops, units).items())
        print(f"  query_p99_ms tail by kind: {shares}")
    for m in wanted:
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    for mismatch in mismatches:
        print(f"  count differs between traced units: {mismatch}")
    for error in [e for u in units for e in u.errors][:MAX_ERRORS_SHOWN]:
        print(f"  FAILED {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

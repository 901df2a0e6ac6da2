"""Which library boundaries the traced run wraps, and the per-layer metrics.

Names follow the library's modules (_batch appears as batch, because a
metric name must start with a letter).  Times are self times (a span's
duration minus its child spans) scaled to reference speed; counts are
exact and must repeat from one traced unit to the next.  All values are
per unit of the workload.

Which end-to-end metric each layer metric should move, and where:

- appearance.scan.{s,calls,windows,window_bytes}: wall_s and cases_per_s
  on verify-all and sampled-sweep; no change on automaton-sweep.
- appearance.grid_s_values.s (self time, scan excluded) and the
  grid_s_values / grid_prefix hit ratios: verify-all, the only workload
  that shares grid caches across suites.
- appearance.report.s, appearance.prefix_bytes.s and
  appearance.horizon_doublings (reports whose horizon went past
  6*phi(n), i.e. wasted confirmation work): query_p50_ms and
  query_p99_ms on single-queries.
- batch.compare_formula_vs_dfao.s and batch.dfao_cases_per_s:
  automaton-sweep, and the formula-dfao share of verify-all.
- batch.pf_prefix_matrix.s and batch.prefix_cells (rows x length):
  verify-all and sampled-sweep.
- folding.pf_prefix.s, folding.positions, dfao.run_dfao.{s,calls}:
  single-queries.
- verification.<claim>.{s,cases}: verify-all;
  verification.s_from_prefix.s and verification.sample_prefix.hit_ratio:
  sampled-sweep.
- classifier.synthesize_table.s: query_p99_ms on single-queries.
- trace.overhead_s: traced minus untraced unit wall time, the cost of
  the wrappers themselves.
"""

from __future__ import annotations

from foldscope import _batch, appearance, classifier, dfao, folding, verification

from tracing import Tracer, self_time_by_name

# verify_* function -> claim id used in the metric names
CLAIMS = (
    ("verify_formula_vs_dfao", "formula-dfao"),
    ("verify_bounds", "bounds"),
    ("verify_lemma_first_occurrence", "lemma1"),
    ("verify_lemma_last_factor", "lemma2"),
    ("verify_lemma_shared_start", "lemma3"),
    ("verify_theorem", "theorem"),
    ("verify_corollary_tails", "corollary-tails"),
    ("verify_monotonicity_and_symmetry", "monotonicity"),
)

# spans whose self time is reported as <name>.s
TIMED = (
    "appearance.scan", "appearance.grid_s_values", "appearance.grid_prefix",
    "appearance.report", "appearance.prefix_bytes",
    "batch.compare_formula_vs_dfao", "batch.pf_prefix_matrix",
    "folding.pf_prefix", "dfao.run_dfao",
    *(f"verification.{claim}" for _, claim in CLAIMS),
    "verification.s_from_prefix", "verification.sample_prefix",
    "classifier.synthesize_table",
)

# exact counts reported as they are
COUNTS = (
    "appearance.scan.calls", "appearance.scan.windows", "appearance.scan.window_bytes",
    "appearance.grid_s_values.hits", "appearance.grid_s_values.misses",
    "appearance.grid_prefix.hits", "appearance.grid_prefix.misses",
    "appearance.report.calls", "appearance.horizon_doublings",
    "appearance.prefix_bytes.calls",
    "batch.compare_formula_vs_dfao.calls", "batch.dfao_cases",
    "batch.pf_prefix_matrix.calls", "batch.prefix_cells",
    "folding.pf_prefix.calls", "folding.positions",
    "dfao.run_dfao.calls",
    *(f"verification.{claim}.cases" for _, claim in CLAIMS),
    "verification.s_from_prefix.calls",
    "verification.sample_prefix.hits", "verification.sample_prefix.misses",
    "classifier.synthesize_table.calls",
)

# lru caches whose hit ratio is reported as <name>.hit_ratio
CACHES = ("appearance.grid_s_values", "appearance.grid_prefix",
          "verification.sample_prefix")


def _scan(args, kwargs, result, counts):
    _prefix, n, limit = args
    counts["appearance.scan.windows"] += limit
    counts["appearance.scan.window_bytes"] += limit * n


def _report(args, kwargs, result, counts):
    if result.horizon_used > 6 * result.phi_n:
        counts["appearance.horizon_doublings"] += 1


def _dfao_cases(args, kwargs, result, counts):
    counts["batch.dfao_cases"] += result[0]


def _prefix_cells(args, kwargs, result, counts):
    counts["batch.prefix_cells"] += result.size


def _positions(args, kwargs, result, counts):
    counts["folding.positions"] += len(result)


def _claim_cases(claim):
    def count(args, kwargs, result, counts):
        counts[f"verification.{claim}.cases"] += result.cases_checked
    return count


def instrument(tracer: Tracer) -> None:
    """Wrap every boundary above; the tracer restores them on exit."""
    wrap = tracer.wrap
    wrap(appearance, "_scan_first_starts", "appearance.scan", _scan)
    wrap(appearance, "grid_s_values", "appearance.grid_s_values")
    wrap(appearance, "_grid_prefix_bytes", "appearance.grid_prefix")
    wrap(appearance, "appearance_report", "appearance.report", _report)
    wrap(appearance, "_prefix_bytes", "appearance.prefix_bytes")
    wrap(_batch, "compare_formula_vs_dfao", "batch.compare_formula_vs_dfao", _dfao_cases)
    wrap(_batch, "pf_prefix_matrix", "batch.pf_prefix_matrix", _prefix_cells)
    wrap(folding, "pf_prefix", "folding.pf_prefix", _positions)
    wrap(dfao, "run_dfao", "dfao.run_dfao")
    for attr, claim in CLAIMS:
        wrap(verification, attr, f"verification.{claim}", _claim_cases(claim))
    wrap(verification, "_s_from_prefix", "verification.s_from_prefix")
    wrap(verification, "_sample_prefix_bytes", "verification.sample_prefix")
    wrap(classifier, "synthesize_table", "classifier.synthesize_table")


def layer_metrics(spans, counts: dict, speed: float) -> dict:
    """Per-layer metrics of one traced unit; `speed` scales work-clock
    seconds to reference speed."""
    selfs = self_time_by_name(spans)
    out = {f"{name}.s": selfs.get(name, 0.0) * speed for name in TIMED}
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for name in CACHES:
        hits, misses = counts.get(name + ".hits", 0), counts.get(name + ".misses", 0)
        out[name + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    compare_s = sum(s.end - s.start for s in spans
                    if s.name == "batch.compare_formula_vs_dfao") * speed
    out["batch.dfao_cases_per_s"] = (counts.get("batch.dfao_cases", 0) / compare_s
                                      if compare_s else 0.0)
    return out

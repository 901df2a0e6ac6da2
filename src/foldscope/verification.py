"""Brute-force verification of the closed-form appearance behavior.

Each verify_* function re-establishes one claim by finite enumeration:
instruction prefixes are enumerated exhaustively up to a per-n depth that
covers everything the first-occurrence scan can touch, or sampled with a
fixed seed above the exhaustive budget.  Every outcome reports exact case
counts and, on failure, a concrete counterexample with the full
instruction prefix.

The enumeration depth for length n is scan_depth(n): the scan reads the
sequence out to 12*phi(n) + n - 1 positions, so instruction bits beyond
that depth are never consulted.  The dependence check inside
verify_theorem confirms the bits that do matter.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _batch, appearance
from .appearance import band_length, phi, predicted_s, s_column, scan_depth
# No suite reads S one prefix at a time any more; the name stays importable
# because perfbench/layers.py traces it.
from .appearance import _s_from_prefix  # noqa: F401
from .dfao import ALPHABET, ParallelDFAO, build_pf_evaluator, replace_transition
from .folding import FoldingInstructions, format_instructions, parse_instructions

DEFAULT_SEED = 31337
# the formula/automaton sweep enumerates every pattern up to this depth
EXHAUSTIVE_DFAO_DEPTH = 13
# verify_bounds enumerates every pattern up to this n and samples above it
EXHAUSTIVE_BOUNDS_N_MAX = 64
# verify_theorem enumerates every pattern up to this scan depth (n <= 4096)
EXHAUSTIVE_THEOREM_DEPTH = 16


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one brute-force claim check.

    `mode` is "exhaustive" (all 2^instruction_depth prefixes per n) or
    "sampled" (distinct seeded prefixes, extremal streams included, the
    fewest at any sampled n counted in sample_count; for formula-dfao, grid
    patterns plus streams); `passed` is true iff `counterexample` is absent.
    """

    claim_id: str
    n_range: tuple[int, int]
    instruction_depth: int
    mode: str
    passed: bool
    cases_checked: int
    sample_count: Optional[int] = None
    seed: Optional[int] = None
    counterexample: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"mode {self.mode!r} not 'exhaustive' or 'sampled'")
        if self.passed != (self.counterexample is None):
            raise ValueError("passed must hold exactly when no counterexample exists")

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "n_range": list(self.n_range),
            "instruction_depth": self.instruction_depth,
            "mode": self.mode,
            "passed": self.passed,
            "cases": self.cases_checked,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "counterexample": self.counterexample,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _run_suite(claim_id, n_lo, n_hi, check_n, *, sampled_from=None, seed=None,
               details=None) -> VerificationOutcome:
    """One outcome from check_n(n) -> (cases, depth, counterexample) over
    n_lo..n_hi; every n is checked and the lowest-n counterexample wins.
    The n >= sampled_from are sampled at `seed`; sample_count is the fewest
    cases (distinct prefixes) checked at any of them."""
    ns = range(n_lo, n_hi + 1)
    results = [check_n(n) for n in ns]
    counter = next((c for _, _, c in results if c is not None), None)
    sampled = [cases for n, (cases, _, _) in zip(ns, results)
               if sampled_from is not None and n >= sampled_from]
    return VerificationOutcome(
        claim_id=claim_id, n_range=(n_lo, n_hi),
        instruction_depth=max(depth for _, depth, _ in results),
        mode="sampled" if sampled else "exhaustive",
        passed=counter is None,
        cases_checked=sum(cases for cases, _, _ in results),
        sample_count=min(sampled) if sampled else None,
        seed=seed if sampled else None,
        counterexample=counter, details=details or {})


@lru_cache(maxsize=None)
def _grid_row_tuples(depth: int, width: int) -> tuple:
    rows = appearance._grid_rows(depth, width)
    return tuple(tuple(int(v) for v in row) for row in rows)


def _row_text(row) -> str:
    return format_instructions(FoldingInstructions(row))


def _grid_instruction_text(depth: int, width: int, index: int) -> str:
    return _row_text(_grid_row_tuples(depth, width)[index])


@lru_cache(maxsize=None)
def _sample_rows(width: int, samples: int, seed: int) -> tuple:
    """Seeded sample of instruction streams; extremal streams always first."""
    rng = random.Random(seed * 1_000_003 + width * 1_009 + samples)
    specials = [
        (1,) * width,
        (-1,) * width,
        tuple(1 if i % 2 == 0 else -1 for i in range(width)),
        tuple(-1 if i % 2 == 0 else 1 for i in range(width)),
    ]
    draws = [tuple(rng.choice((-1, 1)) for _ in range(width)) for _ in range(samples)]
    seen, out = set(), []
    for row in specials + draws:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return tuple(out)


@lru_cache(maxsize=None)
def _sample_prefix_bytes(width: int, samples: int, seed: int, length: int) -> tuple:
    rows = np.array(_sample_rows(width, samples, seed), dtype=np.int8)
    return tuple(_batch.sign_matrix_to_bytes(_batch.pf_prefix_matrix(rows, length)))


def _s_values(n, depth, sampled, samples, seed):
    """(S values, instruction rows) for every pattern enumerated at n."""
    if not sampled:
        return appearance.grid_s_values(n, depth), _grid_row_tuples(depth, depth)
    prefixes = _sample_prefix_bytes(depth, samples, seed, band_length(n))
    return s_column(prefixes, n).tolist(), _sample_rows(depth, samples, seed)


def _check_samples(samples):
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")


def clear_caches():
    _grid_row_tuples.cache_clear()
    _sample_rows.cache_clear()
    _sample_prefix_bytes.cache_clear()
    appearance.clear_caches()


# ---------------------------------------------------------------------------
# formula vs automaton


def verify_formula_vs_dfao(k_bound: int = 4096, depth: Optional[int] = None, *,
                           samples: int = 100, seed: int = DEFAULT_SEED,
                           machine: Optional[ParallelDFAO] = None) -> VerificationOutcome:
    """Sweep the closed formula against the automaton for all k <= k_bound.

    `depth` defaults to max(EXHAUSTIVE_DFAO_DEPTH, k_bound.bit_length()).
    With 2^depth feasible (depth <= EXHAUSTIVE_DFAO_DEPTH) every depth-bit
    instruction pattern is enumerated and every k is fully decided (the
    tracks are extended cyclically by one position when the top power of
    two requires it).  Otherwise the depth-limited grid shrinks to 2^12
    patterns extended cyclically to `depth` track pairs, and seeded random
    streams long enough for every k are added on top; positions the short
    tracks cannot decide are reported in details and covered by the long
    streams.
    """
    if k_bound < 1:
        raise ValueError(f"k_bound must be >= 1, got {k_bound}")
    _check_samples(samples)
    depth = max(EXHAUSTIVE_DFAO_DEPTH, k_bound.bit_length()) if depth is None else depth
    d = machine if machine is not None else build_pf_evaluator()
    exhaustive = depth <= EXHAUSTIVE_DFAO_DEPTH
    if exhaustive and depth < k_bound.bit_length():
        raise ValueError(f"depth {depth} cannot evaluate positions up to {k_bound}")

    def sweep(rows, text):
        cases, skipped, mismatch = _batch.compare_formula_vs_dfao(d, rows, k_bound)
        counter = None
        if mismatch is not None:
            j, k, want, got = mismatch
            counter = {"instructions": text(j), "k": k, "formula": want, "dfao": got}
        return cases, skipped, counter

    if exhaustive:
        free, width = depth, max(depth, k_bound.bit_length() + 1)
    else:
        free, width = min(depth, 12), depth
    cases, skipped, counter = sweep(appearance._grid_rows(free, width),
                                    lambda j: _grid_instruction_text(free, width, j))
    details: dict = {"k_bound": k_bound, "range_is_k": True,
                     "grid_patterns": 1 << free, "grid_skipped_k": skipped}
    sample_count = None
    if not exhaustive:
        long_width = max(depth + 1, k_bound.bit_length() + 1)
        stream_rows = _sample_rows(long_width, samples, seed)
        more_cases, skipped, stream_counter = sweep(
            np.array(stream_rows, dtype=np.int8),
            lambda j: format_instructions(FoldingInstructions(stream_rows[j])))
        cases += more_cases
        counter = counter or stream_counter
        details["stream_count"] = len(stream_rows)
        details["stream_skipped_k"] = skipped
        sample_count = details["grid_patterns"] + len(stream_rows)

    return VerificationOutcome(
        claim_id="formula-dfao",
        n_range=(1, k_bound),
        instruction_depth=depth,
        mode="exhaustive" if exhaustive else "sampled",
        passed=counter is None,
        cases_checked=cases,
        sample_count=sample_count,
        seed=None if exhaustive else seed,
        counterexample=counter,
        details=details,
    )


def dfao_mutation_catalog(machine: Optional[ParallelDFAO] = None):
    """Every single-transition redirect of the evaluator (harness self-test).

    For each (state, symbol) the transition target is bumped to the next
    state id, giving state_count * 4 distinct broken machines.
    """
    d = machine if machine is not None else build_pf_evaluator()
    out = []
    for q in range(d.state_count):
        for sym in ALPHABET:
            tgt = d.transitions[(q, sym)]
            new = (tgt + 1) % d.state_count
            label = f"state{q}:({'+' if sym[0] == 1 else '-'},{sym[1]})->{new}"
            out.append((label, replace_transition(d, q, sym, new)))
    return out


# ---------------------------------------------------------------------------
# bounds, lemmas, theorem


def _extremes_for_n(n, samples, seed):
    depth = scan_depth(n)
    values, rows = _s_values(n, depth, n > EXHAUSTIVE_BOUNDS_N_MAX, samples, seed)
    p = phi(n)
    observed_max = max(values)
    observed_min = min(values)
    counter = None
    if observed_max != 6 * p:
        counter = {"n": n, "kind": "max", "expected": 6 * p,
                   "observed": observed_max,
                   "instructions": _row_text(rows[values.index(observed_max)])}
    elif n >= 7 and observed_min != 4 * p:
        counter = {"n": n, "kind": "min", "expected": 4 * p,
                   "observed": observed_min,
                   "instructions": _row_text(rows[values.index(observed_min)])}
    return len(values), depth, counter


def verify_bounds(n_lo: int = 3, n_hi: int = 64, *, samples: int = 200,
                  seed: int = DEFAULT_SEED) -> VerificationOutcome:
    """Check that max_f S_f(n) = 6*phi(n) (n >= 3) and min_f S_f(n) =
    4*phi(n) (n >= 7) are attained over the enumerated instruction sets."""
    if n_lo < 3:
        raise ValueError(f"the max bound is only claimed for n >= 3, got n_lo={n_lo}")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    _check_samples(samples)
    return _run_suite(
        "bounds", n_lo, n_hi,
        lambda n: _extremes_for_n(n, samples, seed),
        sampled_from=EXHAUSTIVE_BOUNDS_N_MAX + 1, seed=seed,
        details={"exhaustive_n_max": min(n_hi, EXHAUSTIVE_BOUNDS_N_MAX),
                 "min_checked_from": max(n_lo, 7)},
    )


def _check_lemma_range(n_lo, n_hi):
    if n_lo < 7:
        raise ValueError(f"the lemmas are claimed for n >= 7 only, got n_lo={n_lo}")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")


def _occurrences(prefix: bytes, target: bytes, end: int):
    """1-based starts of every occurrence of target within prefix[0:end]."""
    out = []
    pos = prefix.find(target, 0, end)
    while pos != -1:
        out.append(pos + 1)
        pos = prefix.find(target, pos + 1, end)
    return out


def _grid_lemma(n, check):
    """check(prefix, index) -> counterexample fields or None, applied to
    every depth-bit grid prefix for n until the first failure."""
    depth = scan_depth(n)
    prefixes = appearance._grid_prefix_bytes(depth, depth, band_length(n))
    for i, pb in enumerate(prefixes):
        bad = check(pb, i)
        if bad is not None:
            counter = {"n": n, **bad,
                       "instructions": _grid_instruction_text(depth, depth, i)}
            return len(prefixes), depth, counter
    return len(prefixes), depth, None


def _lemma1_for_n(n):
    p = phi(n)

    def check(pb, i):
        target = pb[6 * p - 1:6 * p - 1 + n]
        occ = _occurrences(pb, target, 6 * p + n - 1)
        if 6 * p not in occ or not set(occ) <= {4 * p, 6 * p}:
            return {"occurrences": occ, "allowed": [4 * p, 6 * p]}
    return _grid_lemma(n, check)


def verify_lemma_first_occurrence(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The window of length n at 6*phi(n) occurs in the prefix of length
    6*phi(n)+n-1 only at starts 4*phi(n) or 6*phi(n)."""
    _check_lemma_range(n_lo, n_hi)
    return _run_suite("lemma1", n_lo, n_hi, _lemma1_for_n)


def _lemma2_for_n(n):
    p = phi(n)
    s_values = appearance.grid_s_values(n, scan_depth(n))

    def check(pb, i):
        s = s_values[i]
        target = pb[6 * p - 1:6 * p - 1 + n]
        latest_window = pb[s - 1:s - 1 + n]
        direct_first = pb.find(target) + 1
        if latest_window != target or direct_first != s:
            return {"s": s, "latest_factor": latest_window.decode(),
                    "expected_factor": target.decode(),
                    "direct_first_start": direct_first}
    return _grid_lemma(n, check)


def verify_lemma_last_factor(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The factor with the latest first start is exactly the window at
    6*phi(n), cross-checked against a direct substring search.

    Distinct factors have distinct first starts, so the maximizer is
    automatically unique; the direct search keeps the scan honest.
    """
    _check_lemma_range(n_lo, n_hi)
    return _run_suite("lemma2", n_lo, n_hi, _lemma2_for_n)


def _lemma3_for_n(n):
    p = phi(n)

    def check(pb, i):
        short = pb[6 * p - 1:6 * p - 1 + n]
        full = pb[6 * p - 1:6 * p - 1 + p]
        first_short = pb.find(short) + 1
        first_full = pb.find(full) + 1
        if first_short != first_full:
            return {"first_start_len_n": first_short,
                    "first_start_len_phi": first_full}
    return _grid_lemma(n, check)


def verify_lemma_shared_start(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The windows of lengths n and phi(n) starting at 6*phi(n) first
    appear at the same index."""
    _check_lemma_range(n_lo, n_hi)
    return _run_suite("lemma3", n_lo, n_hi, _lemma3_for_n)


def _theorem_for_n(n, sampled, samples, seed, predictor):
    depth = scan_depth(n)
    k = phi(n).bit_length() - 1
    if k + 2 >= depth:
        raise ValueError(f"instruction depth {depth} at n={n} does not reach "
                         f"f_{k + 2}, which the closed form reads")
    values, rows = _s_values(n, depth, sampled, samples, seed)

    counter = None
    for value, row in zip(values, rows):
        f = FoldingInstructions(row)
        pred = predictor(f, n)
        if value != pred:
            counter = {"n": n, "computed": value, "predicted": pred,
                       "instructions": format_instructions(f)}
            break
    if counter is None:
        # dependence: fixing (f_{k+1}, f_{k+2}) must pin the value
        groups: dict = {}
        for value, row in zip(values, rows):
            pair = (row[k + 1], row[k + 2])
            first_value, first_row = groups.setdefault(pair, (value, row))
            if first_value != value:
                counter = {"n": n, "pair": list(pair),
                           "s_first": first_value, "s_second": value,
                           "instructions": _row_text(first_row),
                           "instructions_other": _row_text(row)}
                break
    return len(rows), depth, counter


def verify_theorem(n_lo: int = 7, n_hi: int = 64, mode: str = "exhaustive", *,
                   samples: int = 200, seed: int = DEFAULT_SEED,
                   predictor: Optional[Callable] = None) -> VerificationOutcome:
    """Scanned s_value equals the closed form for every enumerated (f, n),
    and the value depends on (f_{k+1}, f_{k+2}) only."""
    _check_lemma_range(n_lo, n_hi)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode {mode!r} not 'exhaustive' or 'sampled'")
    _check_samples(samples)
    if mode == "exhaustive" and scan_depth(n_hi) > EXHAUSTIVE_THEOREM_DEPTH:
        raise ValueError(f"exhaustive depth {scan_depth(n_hi)} exceeds the "
                         f"{EXHAUSTIVE_THEOREM_DEPTH}-bit budget; use sampled mode")
    pred = predictor if predictor is not None else predicted_s
    sampled = mode == "sampled"
    return _run_suite(
        "theorem", n_lo, n_hi,
        lambda n: _theorem_for_n(n, sampled, samples, seed, pred),
        sampled_from=n_lo if sampled else None, seed=seed)


# ---------------------------------------------------------------------------
# corollary tails, monotonicity, symmetry


NON_QUALIFYING_TAILS = ("+;++-", "-;--+", "++;++--", "+-+-;+++-", "+;+-+")


def _s_rows(instructions, ns) -> list:
    """Per instruction set, a map n -> S(n) for every n in ns, each phi-band
    computed once over all the sets and read by s_column."""
    prefixes = tuple(appearance._prefix_bytes(f, band_length(ns[-1])) for f in instructions)
    columns = {n: s_column(prefixes, n).tolist() for n in ns}
    return [{n: columns[n][i] for n in ns} for i in range(len(prefixes))]


def verify_corollary_tails(*, n_hi: int = 64) -> VerificationOutcome:
    """Tails alternating from f_4 give s = 4*phi(n) for every head and all
    7 <= n <= n_hi; constant tails give 6*phi(n).  A fixed catalog of
    other periodic tails must each show both branches somewhere.

    The catalog's mixed-branch witnesses always search the fixed window
    7..64 the catalog is calibrated for (two entries first switch branch
    at n = 17), independent of n_hi.
    """
    if n_hi < 7:
        raise ValueError(f"need n_hi >= 7, got {n_hi}")
    heads = _grid_row_tuples(4, 4)
    ns = range(7, n_hi + 1)
    catalog_ns = range(7, 65)
    families = ((4, ((1, -1), (-1, 1))), (6, ((1,), (-1,))))
    family_rows = [(factor, FoldingInstructions(head, tail))
                   for factor, tails in families for head in heads for tail in tails]
    cases = 0

    def check_families():
        nonlocal cases
        s_rows = _s_rows([f for _, f in family_rows], ns)
        for (factor, f), row in zip(family_rows, s_rows):
            for n in ns:
                cases += 1
                if row[n] != factor * phi(n):
                    return {"n": n, "expected": factor * phi(n), "observed": row[n],
                            "instructions": format_instructions(f)}
        return None

    counter = check_families()

    witnesses = []
    if counter is None:
        catalog = [parse_instructions(text) for text in NON_QUALIFYING_TAILS]
        for text, row in zip(NON_QUALIFYING_TAILS, _s_rows(catalog, catalog_ns)):
            branch_by_n: dict = {}
            for n in catalog_ns:
                cases += 1
                branch_by_n[n] = row[n] // phi(n)
            branches = set(branch_by_n.values())
            if branches != {4, 6}:
                counter = {"catalog_entry": text,
                           "branches_seen": sorted(branches),
                           "expected": "both 4 and 6"}
                break
            w4 = next(n for n, b in branch_by_n.items() if b == 4)
            w6 = next(n for n, b in branch_by_n.items() if b == 6)
            witnesses.append({"instructions": text, "n_with_4phi": w4,
                              "n_with_6phi": w6})

    return VerificationOutcome(
        claim_id="corollary-tails", n_range=(7, n_hi),
        instruction_depth=4, mode="exhaustive",
        passed=counter is None, cases_checked=cases,
        counterexample=counter,
        details={"heads": len(heads), "tails_per_branch": 2,
                 "catalog_witnesses": witnesses},
    )


def verify_monotonicity_and_symmetry(depth: int = 8, n_max: int = 32) -> VerificationOutcome:
    """s_value is nondecreasing in n and invariant under global negation,
    for every depth-bit pattern extended cyclically.

    details also records the two readings of the fixed point at n = 7:
    whether S_f(7) = 48 for every f, and whether max_f S_f(7) = 48.
    """
    if depth < 1 or n_max < 1:
        raise ValueError("depth and n_max must be >= 1")
    width = max(depth, scan_depth(n_max))
    columns = {n: appearance.grid_s_values(n, depth, width)
               for n in range(1, n_max + 1)}
    total = 1 << depth
    mask = total - 1
    counter = None
    for i in range(total):
        prev = None
        for n in range(1, n_max + 1):
            s = columns[n][i]
            if prev is not None and s < prev:
                counter = {"n": n, "s_at_n": s, "s_at_n_minus_1": prev,
                           "kind": "monotonicity",
                           "instructions": _cyclic_instruction_text(depth, i)}
                break
            prev = s
            flipped = columns[n][~i & mask]
            if flipped != s:
                counter = {"n": n, "s": s, "s_negated": flipped,
                           "kind": "negation",
                           "instructions": _cyclic_instruction_text(depth, i)}
                break
        if counter:
            break

    details: dict = {"width": width}
    if n_max >= 7:
        sevens = set(columns[7])
        details["s7_values"] = sorted(sevens)
        details["s7_universal_48"] = sevens == {48}
        details["s7_max_48"] = max(sevens) == 48

    return VerificationOutcome(
        claim_id="monotonicity", n_range=(1, n_max),
        instruction_depth=depth, mode="exhaustive",
        passed=counter is None,
        cases_checked=total * n_max,
        counterexample=counter, details=details,
    )


def _cyclic_instruction_text(depth: int, index: int) -> str:
    bits = tuple(1 if (index >> t) & 1 else -1 for t in range(depth))
    return format_instructions(FoldingInstructions((), bits))


# ---------------------------------------------------------------------------


def run_all(*, n_max: int = 64, k_bound: int = 4096,
            samples: int = 200, seed: int = DEFAULT_SEED) -> list:
    """Every suite at desk-scale defaults, in a fixed order; formula-dfao
    takes its default depth for k_bound and at most 100 of the samples."""
    if n_max < 7:
        raise ValueError(f"need n_max >= 7 to exercise every claim, got {n_max}")
    theorem_mode = "sampled" if scan_depth(n_max) > EXHAUSTIVE_THEOREM_DEPTH else "exhaustive"
    return [
        verify_formula_vs_dfao(k_bound, samples=min(samples, 100), seed=seed),
        verify_bounds(3, n_max, samples=samples, seed=seed),
        verify_lemma_first_occurrence(7, min(n_max, 64)),
        verify_lemma_last_factor(7, min(n_max, 64)),
        verify_lemma_shared_start(7, min(n_max, 64)),
        verify_theorem(7, n_max, theorem_mode, samples=samples, seed=seed),
        verify_corollary_tails(n_hi=min(n_max, 64)),
        verify_monotonicity_and_symmetry(8, min(n_max, 32)),
    ]

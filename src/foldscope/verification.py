"""Brute-force verification of the closed-form appearance behavior.

Each verify_* function re-establishes one claim by finite enumeration:
instruction prefixes are enumerated exhaustively up to a per-n depth that
covers everything the first-occurrence scan can touch, or sampled with a
fixed seed above the exhaustive budget.  Every outcome reports exact case
counts and, on failure, a concrete counterexample with the full
instruction prefix.

The enumeration depth for length n is scan_depth(n), one bit above those
the scans' prefix of 7*phi(n) - 1 signs reads, so instruction bits beyond
that depth are never consulted.  Every grid pattern therefore has a twin
with the same band prefix, and a negation with the negated one: the band
and target-LCP kernels make one scan per negation pair, and a grid's
2^depth rows reach the kernel as 2^(depth - 2).  verify_theorem holds S
to the closed form, which reads only the two bits that matter.

Each grid suite reads its grid whole through one accessor, _grid(n,
...) -> (depth, rows): rows is a read-only int8 array (the sign grid,
built once per depth, or the cached seeded sample) and S is the
read-only numpy column s_column(rows, n) from the band kernel, which
builds the rows' band prefixes chunk by chunk.  The three lemmas, which
all compare windows with the one at 6*phi(n), read one cached summary
per phi-band (_batch.target_summary), cached like the band on the rows'
bytes: per row, the largest common prefix with that window off starts
4*phi and 6*phi, the one at 6*phi, and the first start reaching each n
of the band.  So each lemma reads one or two columns per n, and no
(rows, 6*phi) array is kept.  Each check builds a per-row failure mask,
and one helper, _first_failure, turns its first failing row into the
counterexample; only that row is looked at on its own, its prefix built
by pf_prefix_matrix (lemma1 finds its occurrences by a byte search that
shares no kernel).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _batch, appearance
from .appearance import CACHE_SIZE, band_length, phi, predicted_s, s_column, scan_depth
# Trace-only, like _sample_prefix_bytes below: no library code calls it,
# perfbench/layers.py wraps it by name, ROADMAP item 1 drops both.
from .appearance import _s_from_prefix  # noqa: F401
from .dfao import ALPHABET, ParallelDFAO, build_pf_evaluator, replace_transition
from .folding import FoldingInstructions, format_instructions, instruction, parse_instructions

DEFAULT_SEED = 31337
# the formula/automaton sweep enumerates every pattern up to this depth
EXHAUSTIVE_DFAO_DEPTH = 13
# verify_bounds enumerates every pattern up to this n and samples above it
EXHAUSTIVE_BOUNDS_N_MAX = 64
# exhaustive verify_theorem and the lemmas enumerate every pattern up to
# this scan depth (n <= 256), and monotonicity up to this grid width;
# deeper grids are refused before any work
EXHAUSTIVE_DEPTH_MAX = 12
# sampled suites draw at most this many streams (the largest exhaustive
# grid); 100,000 draws at width 11 took 0.83 s and 11 MB
SAMPLES_MAX = 1 << EXHAUSTIVE_DEPTH_MAX
# bounds and the theorem refuse n above this before any work; cold bounds
# took 21 s on n = 1025..2048 (2-core Xeon)
SAMPLED_N_MAX = 2048
# the formula/automaton sweep checks positions k up to at most this bound
# (the largest sweep in use); larger bounds are refused before any work
K_BOUND_MAX = 1 << 16


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one brute-force claim check.

    `mode` is "exhaustive" (all 2^instruction_depth prefixes per n) or
    "sampled" (distinct seeded prefixes, extremal streams included, the
    fewest at any sampled n counted in sample_count; for formula-dfao, grid
    patterns plus streams); `passed` is true iff `counterexample` is absent.
    Every suite indexed by n checks all of n_range and reports the
    counterexample at the lowest failing n.
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
    """The one per-n skeleton: an outcome from check_n(n, sampled) ->
    (cases, depth, counterexample) over n_lo..n_hi.

    The skeleton alone decides which n are sampled (n >= sampled_from,
    drawn at `seed`) and passes that flag to check_n; sample_count is the
    fewest cases (distinct prefixes) checked at any sampled n.  Every n is
    checked and counted, and the lowest-n counterexample wins.
    """
    ns = range(n_lo, n_hi + 1)
    is_sampled = [sampled_from is not None and n >= sampled_from for n in ns]
    results = [check_n(n, sampled) for n, sampled in zip(ns, is_sampled)]
    counter = next((c for _, _, c in results if c is not None), None)
    sampled = [cases for (cases, _, _), flag in zip(results, is_sampled) if flag]
    return VerificationOutcome(
        claim_id=claim_id, n_range=(n_lo, n_hi),
        instruction_depth=max(depth for _, depth, _ in results),
        mode="sampled" if sampled else "exhaustive",
        passed=counter is None,
        cases_checked=sum(cases for cases, _, _ in results),
        sample_count=min(sampled) if sampled else None,
        seed=seed if sampled else None,
        counterexample=counter, details=details or {})


def _row_text(row) -> str:
    """The instruction text of one enumerated row (an int8 array of +-1)."""
    return format_instructions(FoldingInstructions(row.tolist()))


@lru_cache(maxsize=CACHE_SIZE)
def _sample_rows(width: int, samples: int, seed: int) -> np.ndarray:
    """Seeded sample of distinct instruction streams as a read-only
    (rows, width) int8 array; extremal streams always first."""
    rng = random.Random(seed * 1_000_003 + width * 1_009 + samples)
    specials = [
        (1,) * width,
        (-1,) * width,
        tuple(1 if i % 2 == 0 else -1 for i in range(width)),
        tuple(-1 if i % 2 == 0 else 1 for i in range(width)),
    ]
    draws = [tuple(rng.choice((-1, 1)) for _ in range(width)) for _ in range(samples)]
    rows = np.array(list(dict.fromkeys(specials + draws)), dtype=np.int8)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=CACHE_SIZE)
def _sign_grid(depth: int) -> np.ndarray:
    """_batch.sign_grid(depth) as a read-only array, built once per depth."""
    rows = _batch.sign_grid(depth)
    rows.flags.writeable = False
    return rows


def _sample_prefix_bytes(width: int, samples: int, seed: int, length: int) -> np.ndarray:
    return _batch.pf_prefix_matrix(_sample_rows(width, samples, seed), length)


def _grid(n, sampled=False, samples=0, seed=0):
    """(depth, rows) of every pattern enumerated at n: the scan_depth(n)-bit
    sign grid, or with `sampled` the seeded streams of that width."""
    depth = scan_depth(n)
    return depth, _sample_rows(depth, samples, seed) if sampled else _sign_grid(depth)


def _first_failure(n, depth, rows, fail, fields):
    """(cases, depth, counterexample) of a check at n from its per-row
    failure mask: fields(i) gives the counterexample fields of the first
    failing row i, built from that row alone, and may replace its
    instruction text."""
    bad = np.flatnonzero(fail)
    counter = None
    if bad.size:
        i = int(bad[0])
        counter = {"n": n, "instructions": _row_text(rows[i]), **fields(i)}
    return len(fail), depth, counter


def _check_samples(samples):
    if not 0 <= samples <= SAMPLES_MAX:
        raise ValueError(f"samples must be >= 0 and at most {SAMPLES_MAX}, got {samples}")


def clear_caches():
    _sign_grid.cache_clear()
    _sample_rows.cache_clear()
    _target_summary.cache_clear()
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
    streams.  One split-digit sweep checks both, each distinct half of a
    row once, its formula side read off pf_prefix_matrix on those halves.
    Past K_BOUND_MAX.bit_length() + 1 tracks every k <= K_BOUND_MAX reads
    only zero padding, so deeper `depth` is refused before any work.
    """
    if k_bound < 1:
        raise ValueError(f"k_bound must be >= 1, got {k_bound}")
    if k_bound > K_BOUND_MAX:
        raise ValueError(f"k_bound {k_bound} exceeds the sweep budget of {K_BOUND_MAX}")
    _check_samples(samples)
    depth = max(EXHAUSTIVE_DFAO_DEPTH, k_bound.bit_length()) if depth is None else depth
    if depth > K_BOUND_MAX.bit_length() + 1:
        raise ValueError(f"depth {depth} exceeds the sweep budget of "
                         f"{K_BOUND_MAX.bit_length() + 1} tracks")
    d = machine if machine is not None else build_pf_evaluator()
    exhaustive = depth <= EXHAUSTIVE_DFAO_DEPTH
    if exhaustive and depth < k_bound.bit_length():
        raise ValueError(f"depth {depth} cannot evaluate positions up to {k_bound}")

    def sweep(rows):
        cases, skipped, mismatch = _batch.compare_formula_vs_dfao(d, rows, k_bound)
        counter = None
        if mismatch is not None:
            j, k, want, got = mismatch
            counter = {"instructions": _row_text(rows[j]), "k": k,
                       "formula": want, "dfao": got}
        return cases, skipped, counter

    if exhaustive:
        free, width = depth, max(depth, k_bound.bit_length() + 1)
    else:
        free, width = min(depth, 12), depth
    cases, skipped, counter = sweep(_batch.sign_grid(free, width))
    details: dict = {"k_bound": k_bound, "range_is_k": True,
                     "grid_patterns": 1 << free, "grid_skipped_k": skipped}
    sample_count = None
    if not exhaustive:
        long_width = max(depth + 1, k_bound.bit_length() + 1)
        stream_rows = _sample_rows(long_width, samples, seed)
        more_cases, skipped, stream_counter = sweep(stream_rows)
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


def _extremes_for_n(n, sampled, samples, seed):
    depth, rows = _grid(n, sampled, samples, seed)
    s = s_column(rows, n)
    p = phi(n)
    # the max first, then (from n = 7) the min; the counterexample is the
    # first row that reads the failing extreme
    kind, expected, observed = "max", 6 * p, int(s.max())
    if observed == expected and n >= 7:
        kind, expected, observed = "min", 4 * p, int(s.min())
    fail = (s == observed) & (observed != expected)
    return _first_failure(n, depth, rows, fail, lambda i: {
        "kind": kind, "expected": expected, "observed": observed})


def verify_bounds(n_lo: int = 3, n_hi: int = 64, *, samples: int = 200,
                  seed: int = DEFAULT_SEED) -> VerificationOutcome:
    """Check that max_f S_f(n) = 6*phi(n) (n >= 3) and min_f S_f(n) =
    4*phi(n) (n >= 7) are attained over the enumerated instruction sets."""
    _check_range("bounds", n_lo, n_hi, exhaustive=False, n_min=3)
    _check_samples(samples)
    return _run_suite(
        "bounds", n_lo, n_hi,
        lambda n, sampled: _extremes_for_n(n, sampled, samples, seed),
        sampled_from=EXHAUSTIVE_BOUNDS_N_MAX + 1, seed=seed,
        details={"exhaustive_n_max": min(n_hi, EXHAUSTIVE_BOUNDS_N_MAX),
                 "min_checked_from": max(n_lo, 7)},
    )


def _check_range(claim, n_lo, n_hi, exhaustive=True, n_min=7):
    """Refuse n below the range `claim` is made for, an empty range, an
    exhaustive grid deeper than EXHAUSTIVE_DEPTH_MAX, and n above
    SAMPLED_N_MAX, before any work."""
    if n_lo < n_min:
        raise ValueError(f"{claim} is claimed for n >= {n_min} only, got n_lo={n_lo}")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    if exhaustive and scan_depth(n_hi) > EXHAUSTIVE_DEPTH_MAX:
        raise ValueError(f"exhaustive depth {scan_depth(n_hi)} at n={n_hi} exceeds "
                         f"the {EXHAUSTIVE_DEPTH_MAX}-bit budget")
    if n_hi > SAMPLED_N_MAX:
        raise ValueError(f"n_hi={n_hi} exceeds the budget of n <= {SAMPLED_N_MAX}")


@lru_cache(maxsize=CACHE_SIZE)
def _target_summary(data: bytes, width: int, p: int) -> np.ndarray:
    """_batch.target_summary for the phi-band p of the int8 rows whose
    bytes are `data`, `width` to a row; cached on that content, read-only.
    One summary serves every lemma at every n of the band."""
    summary = _batch.target_summary(np.frombuffer(data, np.int8).reshape(-1, width), p)
    summary.flags.writeable = False
    return summary


def _first_starts_for_n(rows, n) -> np.ndarray:
    """Per row, the first start whose window shares at least n signs with
    the one at 6*phi(n), or _batch.NOT_FOUND."""
    p = phi(n)
    summary = _target_summary(rows.tobytes(), rows.shape[1], p)
    return summary[:, _batch.FIRST_START + n - p // 2 - 1]


def _first_start_field(start) -> Optional[int]:
    return None if start == _batch.NOT_FOUND else int(start)


_NOT_FOUND_NOTE = "no start up to 6*phi(n) shares {} signs with the window at 6*phi(n)"


def _lemma1_for_n(n, _sampled):
    p = phi(n)
    depth, rows = _grid(n)
    # the window at 6p occurs at start i + 1 <= 6p exactly when its target
    # LCP is >= n: it must at 6p, and may at 4p only
    summary = _target_summary(rows.tobytes(), rows.shape[1], p)
    fail = (summary[:, _batch.OFF_TARGET] >= n) | (summary[:, _batch.AT_TARGET] < n)

    def fields(i):
        pb = _batch.pf_prefix_matrix(rows[i:i + 1], band_length(n)).tobytes()
        target = pb[6 * p - 1:6 * p - 1 + n]
        return {"occurrences": [j + 1 for j in range(6 * p) if pb[j:j + n] == target],
                "allowed": [4 * p, 6 * p]}
    return _first_failure(n, depth, rows, fail, fields)


def verify_lemma_first_occurrence(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The window of length n at 6*phi(n) occurs in the prefix of length
    6*phi(n)+n-1 only at starts 4*phi(n) or 6*phi(n).

    The occurrences are the starts whose window shares at least n signs
    with it.  The band's target summary holds, per row, the largest such
    common prefix off those two starts and the one at 6*phi(n) itself.
    """
    _check_range("lemma1", n_lo, n_hi)
    return _run_suite("lemma1", n_lo, n_hi, _lemma1_for_n)


def _lemma2_for_n(n, _sampled):
    p = phi(n)
    depth, rows = _grid(n)
    s = s_column(rows, n)
    # the target's first occurrence; it equals S only if the window at S
    # is the target, so one compare covers both halves of the lemma
    # (NOT_FOUND, where no window reaches n, equals no S)
    direct_first = _first_starts_for_n(rows, n)

    def fields(i):
        pb, si = _batch.pf_prefix_matrix(rows[i:i + 1], band_length(n)).tobytes(), int(s[i])
        found = _first_start_field(direct_first[i])
        out = {"s": si, "latest_factor": pb[si - 1:si - 1 + n].decode(),
               "expected_factor": pb[6 * p - 1:6 * p - 1 + n].decode(),
               "direct_first_start": found}
        if found is None:
            out["not_found"] = _NOT_FOUND_NOTE.format("n")
        return out
    return _first_failure(n, depth, rows, direct_first != s, fields)


def verify_lemma_last_factor(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The factor with the latest first start is exactly the window at
    6*phi(n), cross-checked against a direct search.

    Distinct factors have distinct first starts, so the maximizer is
    automatically unique; the direct search keeps the scan honest.  It is
    the first start whose window shares at least n signs with the one at
    6*phi(n), read off the band's _batch.target_summary; a row where no
    start does fails with a counterexample that says so.  That is still a
    direct search: every window is compared with the one fixed window,
    sign block by sign block.  It shares with the band kernel that gives
    S only the bit packing of _batch._window_codes and _batch._bit_length,
    not its sort, its neighbour LCPs or its longest previous factors, so a
    fault in those cannot show in both.
    """
    _check_range("lemma2", n_lo, n_hi)
    return _run_suite("lemma2", n_lo, n_hi, _lemma2_for_n)


def _lemma3_for_n(n, _sampled):
    depth, rows = _grid(n)
    first_short = _first_starts_for_n(rows, n)
    first_full = _first_starts_for_n(rows, phi(n))

    def fields(i):
        short, full = _first_start_field(first_short[i]), _first_start_field(first_full[i])
        out = {"first_start_len_n": short, "first_start_len_phi": full}
        if full is None:
            out["not_found"] = _NOT_FOUND_NOTE.format("n" if short is None else "phi(n)")
        return out
    # a window no start reaches cannot share its first start with the other
    fail = (first_short == _batch.NOT_FOUND) | (first_short != first_full)
    return _first_failure(n, depth, rows, fail, fields)


def verify_lemma_shared_start(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The windows of lengths n and phi(n) starting at 6*phi(n) first
    appear at the same index: the first starts whose window shares at
    least n, and all phi(n), signs with the one at 6*phi(n).  A row where
    no start reaches n fails with a counterexample that says so.
    """
    _check_range("lemma3", n_lo, n_hi)
    return _run_suite("lemma3", n_lo, n_hi, _lemma3_for_n)


def _theorem_for_n(n, sampled, samples, seed):
    depth = scan_depth(n)
    k = phi(n).bit_length() - 1
    if k + 2 >= depth:
        raise ValueError(f"instruction depth {depth} at n={n} does not reach "
                         f"f_{k + 2}, which the closed form reads")
    _, rows = _grid(n, sampled, samples, seed)
    s = s_column(rows, n)
    # each row's (f_{k+1}, f_{k+2}) class, and the first row of each class
    _, firsts, group = np.unique(2 * rows[:, k + 1] + rows[:, k + 2],
                                 return_index=True, return_inverse=True)
    predicted = np.array([predicted_s(FoldingInstructions(rows[i].tolist()), n)
                          for i in firsts])[group]
    return _first_failure(n, depth, rows, s != predicted, lambda i: {
        "computed": int(s[i]), "predicted": int(predicted[i])})


def verify_theorem(n_lo: int = 7, n_hi: int = 64, mode: str = "exhaustive", *,
                   samples: int = 200, seed: int = DEFAULT_SEED) -> VerificationOutcome:
    """Scanned s_value equals the closed form predicted_s for every
    enumerated (f, n), so it depends on (f_{k+1}, f_{k+2}) only, with
    phi(n) = 2^k.

    predicted_s reads f through that pair alone, so at each n it is asked
    once per pair class, at the class's first row, and its value stands
    for every row of the class.  No separate check that S depends on the
    pair only is made, because it cannot fail: once every row passes, S
    is the one predicted value of its class on every row, so it equals S
    at the class's first row.
    """
    _check_range("theorem", n_lo, n_hi, exhaustive=mode == "exhaustive")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode {mode!r} not 'exhaustive' or 'sampled'")
    _check_samples(samples)
    return _run_suite(
        "theorem", n_lo, n_hi,
        lambda n, sampled: _theorem_for_n(n, sampled, samples, seed),
        sampled_from=n_lo if mode == "sampled" else None, seed=seed)


# ---------------------------------------------------------------------------
# corollary tails, monotonicity, symmetry


NON_QUALIFYING_TAILS = ("+;++-", "-;--+", "++;++--", "+-+-;+++-", "+;+-+")


def verify_corollary_tails(*, n_hi: int = 64) -> VerificationOutcome:
    """Tails alternating from f_4 give s = 4*phi(n) for every head and all
    7 <= n <= n_hi; constant tails give 6*phi(n).  A fixed catalog of
    other periodic tails must each show both branches somewhere.

    The catalog's mixed-branch witnesses always search the fixed window
    7..64 the catalog is calibrated for (two entries first switch branch
    at n = 17), independent of n_hi.  n_hi past n = 256 (scan depth above
    EXHAUSTIVE_DEPTH_MAX) is refused before any work.
    """
    _check_range("corollary-tails", 7, n_hi)
    heads = _batch.sign_grid(4).tolist()
    families = ((4, ((1, -1), (-1, 1))), (6, ((1,), (-1,))))
    rows, factors, family_sets = zip(*[(head, factor, FoldingInstructions(head, tail))
                                       for factor, tails in families
                                       for head in heads for tail in tails])
    rows, factors = np.array(rows, dtype=np.int8), np.array(factors)
    catalog = tuple(parse_instructions(text) for text in NON_QUALIFYING_TAILS)
    # one array of instruction rows, family rows then catalog rows, so both
    # read the same cached bands: f_0..f_(m+2) of the top band, phi = 2^m
    width = band_length(max(n_hi, 64)).bit_length()
    signs = np.array([[instruction(f, t) for t in range(width)]
                      for f in family_sets + catalog], dtype=np.int8)

    def check_n(n, _sampled):
        s, expected = s_column(signs, n)[:len(rows)], factors * phi(n)
        return _first_failure(n, 4, rows, s != expected, lambda i: {
            "expected": int(expected[i]), "observed": int(s[i]),
            "instructions": format_instructions(family_sets[i])})

    # the catalog's branches, by entry and n = 7..64
    branch = np.stack([s_column(signs, n)[len(rows):] // phi(n)
                       for n in range(7, 65)], axis=1)
    is4, is6 = branch == 4, branch == 6
    mixed = is4.any(axis=1) & is6.any(axis=1) & (is4 | is6).all(axis=1)
    good = len(catalog) if mixed.all() else int(mixed.argmin())
    witnesses = [{"instructions": NON_QUALIFYING_TAILS[e],
                  "n_with_4phi": 7 + int(is4[e].argmax()),
                  "n_with_6phi": 7 + int(is6[e].argmax())} for e in range(good)]
    outcome = _run_suite("corollary-tails", 7, n_hi, check_n,
                         details={"heads": len(heads), "tails_per_branch": 2,
                                  "catalog_witnesses": witnesses})
    counter = outcome.counterexample
    if counter is None and good < len(catalog):
        counter = {"catalog_entry": NON_QUALIFYING_TAILS[good],
                   "branches_seen": sorted(set(branch[good].tolist())),
                   "expected": "both 4 and 6"}
    return replace(outcome, passed=counter is None, counterexample=counter,
                   cases_checked=outcome.cases_checked
                   + min(good + 1, len(catalog)) * branch.shape[1])


def verify_monotonicity_and_symmetry(depth: int = 8, n_max: int = 32) -> VerificationOutcome:
    """s_value is nondecreasing in n and invariant under global negation,
    for every depth-bit pattern extended cyclically.

    The other suites scan a prefix and its negation as one kernel row,
    which assumes the invariance checked here, so this suite scans its
    grid with that map off: each pattern's S comes from a row of its own.

    details also records the two readings of the fixed point at n = 7:
    whether S_f(7) = 48 for every f, and whether max_f S_f(7) = 48.
    """
    if depth < 1 or n_max < 1:
        raise ValueError("depth and n_max must be >= 1")
    width = max(depth, scan_depth(n_max))
    if width > EXHAUSTIVE_DEPTH_MAX:
        raise ValueError(f"monotonicity grid width {width} exceeds the "
                         f"{EXHAUSTIVE_DEPTH_MAX}-bit budget")
    rows = _sign_grid(depth)
    # S by (n - 1, pattern); the negation of pattern i is pattern
    # 2^depth - 1 - i, so a column read in reverse holds the negated S
    bands = {p: _batch.band_first_starts(_batch.sign_grid(depth, width), p, _by_negation=False)
             for p in {phi(n) for n in range(1, n_max + 1)}}
    columns = np.array([bands[phi(n)][:, n - phi(n) // 2 - 1] for n in range(1, n_max + 1)])

    def check_n(n, _sampled):
        """Per pattern, S(n - 1) <= S(n) and S(n) equals the negated pattern's."""
        s, before = columns[n - 1], columns[max(n - 2, 0)]
        dip, negated = s < before, s[::-1]

        def fields(i):
            kind = ({"kind": "monotonicity", "s_at_n": int(s[i]),
                     "s_at_n_minus_1": int(before[i])} if dip[i] else
                    {"kind": "negation", "s": int(s[i]), "s_negated": int(negated[i])})
            return {**kind, "instructions": ";" + _row_text(rows[i])}
        return _first_failure(n, depth, rows, dip | (s != negated), fields)

    details: dict = {"width": width}
    if n_max >= 7:
        sevens = sorted(set(columns[6].tolist()))
        details["s7_values"] = sevens
        details["s7_universal_48"] = sevens == [48]
        details["s7_max_48"] = sevens[-1] == 48
    return _run_suite("monotonicity", 1, n_max, check_n, details=details)


# ---------------------------------------------------------------------------


def run_all(*, n_max: int = 64, k_bound: int = 4096,
            samples: int = 200, seed: int = DEFAULT_SEED) -> list:
    """Every suite at desk-scale defaults, in a fixed order; formula-dfao
    takes its default depth for k_bound and at most 100 of the samples;
    the theorem is exhaustive up to n = 256 and sampled past it, as a
    second outcome.  n_max and samples past their budgets are refused
    before any suite."""
    if not 7 <= n_max <= SAMPLED_N_MAX:
        raise ValueError(f"need 7 <= n_max <= {SAMPLED_N_MAX} to exercise every "
                         f"claim within budget, got {n_max}")
    _check_samples(samples)
    exhaustive_hi = max(n for n in range(7, n_max + 1)
                        if scan_depth(n) <= EXHAUSTIVE_DEPTH_MAX)
    outcomes = [
        verify_formula_vs_dfao(k_bound, samples=min(samples, 100), seed=seed),
        verify_bounds(3, n_max, samples=samples, seed=seed),
        verify_lemma_first_occurrence(7, min(n_max, 64)),
        verify_lemma_last_factor(7, min(n_max, 64)),
        verify_lemma_shared_start(7, min(n_max, 64)),
        verify_theorem(7, exhaustive_hi, samples=samples, seed=seed),
    ]
    if n_max > exhaustive_hi:
        outcomes.append(verify_theorem(exhaustive_hi + 1, n_max, "sampled",
                                       samples=samples, seed=seed))
    return outcomes + [
        verify_corollary_tails(n_hi=min(n_max, 64)),
        verify_monotonicity_and_symmetry(8, min(n_max, 32)),
    ]

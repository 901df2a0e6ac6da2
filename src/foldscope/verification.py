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
store keys each row on the signs its band prefix reads, up to negation,
so a grid's 2^depth rows read 2^(depth - 2) rows of the store, and each
of them reaches the band and target-LCP kernels once per process,
whichever suite reads it first.  verify_theorem holds S to the closed
form, which reads only the two bits that matter.

Each grid suite reads its grid whole through one accessor, _grid(n, ...)
-> (depth, rows): rows is a read-only int8 array (the sign grid, built
once per depth, or the cached seeded sample).  The store caches its reads
on the rows' bytes, so a row set need not be cached or read-only for a
repeat read to be a cache hit: corollary-tails builds its rows afresh on
each call and reads the bands of its first call.  The skeleton, _run_suite,
hands each suite the n of one phi-band at a time, and the suite reads
that band once from the band store (appearance.stored_band): S from the
band kernel, which builds the rows' band prefixes chunk by chunk, and for
the three lemmas, which all compare windows with the one at 6*phi(n), one
summary per phi-band (_batch.target_summary): per row, the largest common
prefix with that window off starts 4*phi and 6*phi, the one at 6*phi, and
the first start reaching each n of the band.  Both are kept one row per
key, and a check reduces over the rows its grid reads, never over a
per-row copy of the band: bounds takes a per-column max and min, lemma1
one max and one min per band, and lemma2, lemma3 and the theorem a
per-column any-mismatch; no (rows, 6*phi) array is kept.  Only the
lowest n that fails is looked at row by row: one helper,
_counterexample, turns the first failing row of a column gathered
through the rows' index into the counterexample, that row's prefix built by pf_prefix_matrix (lemma1
finds its occurrences by a byte search that shares no kernel).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import groupby
from typing import Optional

import numpy as np

from . import _batch, appearance
from .appearance import CACHE_SIZE, band_length, phi, predicted_s, scan_depth
# Trace-only, like _sample_prefix_bytes below: no library code calls it,
# perfbench/layers.py wraps it by name, ROADMAP item 1 drops both.
from .appearance import _s_from_prefix  # noqa: F401
from .dfao import ALPHABET, ParallelDFAO, build_pf_evaluator, replace_transition
from .folding import FoldingInstructions, format_instructions, parse_instructions

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


def _run_suite(claim_id, n_lo, n_hi, check_band, *, sampled_from=None, seed=None,
               details=None) -> VerificationOutcome:
    """The one skeleton: an outcome from check_band(p, ns, sampled) ->
    one (cases, depth, counter) per n of ns, over n_lo..n_hi, where
    counter is None where n passes and else builds its counterexample.

    The skeleton walks n_lo..n_hi in runs ns of consecutive n that share
    phi(n) = p and the sampled flag, so a check reads each band it needs
    once per run.  The skeleton alone decides which n are sampled (n >=
    sampled_from, drawn at `seed`) and passes that flag to check_band;
    sample_count is the fewest cases (distinct prefixes) checked at any
    sampled n.  Every n is checked and counted, and only the lowest failing
    n builds its counterexample.
    """
    results, flags = [], []
    for (p, sampled), run in groupby(range(n_lo, n_hi + 1), lambda n: (
            phi(n), sampled_from is not None and n >= sampled_from)):
        ns = list(run)
        results += check_band(p, ns, sampled)
        flags += [sampled] * len(ns)
    counter = next((c for _, _, c in results if c is not None), None)
    counter = counter() if counter is not None else None
    sampled = [cases for (cases, _, _), flag in zip(results, flags, strict=True) if flag]
    return VerificationOutcome(
        claim_id=claim_id, n_range=(n_lo, n_hi),
        instruction_depth=max(depth for _, depth, _ in results),
        mode="sampled" if sampled else "exhaustive",
        passed=counter is None,
        cases_checked=sum(cases for cases, _, _ in results),
        sample_count=min(sampled) if sampled else None,
        seed=seed if sampled else None,
        counterexample=counter, details=details or {})


def _band_results(depth, cases, failing, counter) -> list:
    """One (cases, depth, counter) per n of a band check's ns from its per-n
    failure flags: counter(j) builds the counterexample at ns[j], and only
    _run_suite calls it, at the lowest failing n."""
    return [(cases, depth, partial(counter, j) if bad else None)
            for j, bad in enumerate(failing)]


def _columns(ns) -> list:
    """The column of each n of ns in its phi-band."""
    return [appearance.band_index(n) for n in ns]


def _mismatches(values, inverse, group, expected) -> np.ndarray:
    """Per column of a band's per-key `values`, whether some row r reads a
    value other than expected[group[r], column]: one comparison of the
    per-key rows per group, over those the group's rows read."""
    reads = np.zeros((len(expected), len(values)), bool)
    reads[group, inverse] = True
    failing = np.zeros(values.shape[1], bool)
    for want, read in zip(expected, reads):
        failing |= np.any(values != want, axis=0, where=read[:, None])
    return failing


def _row_text(row) -> str:
    """The instruction text of one enumerated row (an int8 array of +-1)."""
    return format_instructions(FoldingInstructions(row.tolist()))


@lru_cache(maxsize=CACHE_SIZE)
def _sample_rows(width: int, samples: int, seed: int) -> np.ndarray:
    """Seeded sample of distinct instruction streams as a read-only
    (rows, width) int8 array; extremal streams always first.

    The draws are those of rng.choice((-1, 1)) per sign, decoded from the
    generator's 32-bit words in bulk: each try of choice reads one word
    and is taken when its top bit is 0, and the sign is +1 when bit 30 is
    set.  A stream drawn again keeps its first row."""
    rng = random.Random(seed * 1_000_003 + width * 1_009 + samples)
    odd = np.arange(width) % 2
    specials = np.array([np.ones(width), -np.ones(width), 1 - 2 * odd, 2 * odd - 1], np.int8)
    taken, need = [np.empty(0, "<u4")], width * samples
    while need > 0:
        count = 2 * need + 64
        words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")
        words = words[words < 1 << 31][:need]
        taken.append(words)
        need -= len(words)
    signs = np.concatenate(taken) >> 30
    draws = (2 * signs.astype(np.int8) - 1).reshape(samples, width)
    rows = np.concatenate((specials, draws))
    first = np.unique(rows.view(np.dtype((np.void, width))).ravel(), return_index=True)[1]
    rows = rows[np.sort(first)]
    rows.flags.writeable = False
    return rows


def _sample_prefix_bytes(width: int, samples: int, seed: int, length: int) -> np.ndarray:
    return _batch.pf_prefix_matrix(_sample_rows(width, samples, seed), length)


def _grid(n, sampled=False, samples=0, seed=0):
    """(depth, rows) of every pattern enumerated at n: the scan_depth(n)-bit
    sign grid, or with `sampled` the seeded streams of that width."""
    depth = scan_depth(n)
    return depth, _sample_rows(depth, samples, seed) if sampled else appearance.sign_grid(depth)


def _counterexample(n, rows, fail, fields) -> dict:
    """The counterexample at n from a per-row failure mask with a failing
    row: fields(i) gives the fields of the first failing row i, built from
    that row alone, and may replace its instruction text."""
    i = int(np.flatnonzero(fail)[0])
    return {"n": n, "instructions": _row_text(rows[i]), **fields(i)}


def _check_samples(samples):
    if not 0 <= samples <= SAMPLES_MAX:
        raise ValueError(f"samples must be >= 0 and at most {SAMPLES_MAX}, got {samples}")


def clear_caches():
    _sample_rows.cache_clear()
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


def _bounds_band(p, ns, sampled, samples, seed):
    depth, rows = _grid(ns[0], sampled, samples, seed)
    s, inverse = appearance.stored_band(_batch.band_first_starts, rows, p)
    columns = _columns(ns)
    # per n the max first, then (from n = 7) the min, over the rows of the
    # keys the grid reads; the counterexample is the first row that reads
    # the failing extreme
    highs, lows = s.max(axis=0)[columns].tolist(), s.min(axis=0)[columns].tolist()
    checks = [("max", 6 * p, hi) if hi != 6 * p or n < 7 else ("min", 4 * p, lo)
              for n, hi, lo in zip(ns, highs, lows)]

    def counter(j):
        kind, expected, observed = checks[j]
        column = s[:, columns[j]].take(inverse)
        return _counterexample(ns[j], rows, column == observed, lambda i: {
            "kind": kind, "expected": expected, "observed": observed})
    return _band_results(depth, len(rows),
                         [observed != expected for _, expected, observed in checks], counter)


def verify_bounds(n_lo: int = 3, n_hi: int = 64, *, samples: int = 200,
                  seed: int = DEFAULT_SEED) -> VerificationOutcome:
    """Check that max_f S_f(n) = 6*phi(n) (n >= 3) and min_f S_f(n) =
    4*phi(n) (n >= 7) are attained over the enumerated instruction sets."""
    _check_range("bounds", n_lo, n_hi, exhaustive=False, n_min=3)
    _check_samples(samples)
    return _run_suite(
        "bounds", n_lo, n_hi,
        lambda p, ns, sampled: _bounds_band(p, ns, sampled, samples, seed),
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


def _first_start_field(start) -> Optional[int]:
    return None if start == _batch.NOT_FOUND else int(start)


_NOT_FOUND_NOTE = "no start up to 6*phi(n) shares {} signs with the window at 6*phi(n)"


def _lemma1_band(p, ns, _sampled):
    depth, rows = _grid(ns[0])
    summary, inverse = appearance.stored_band(_batch.target_summary, rows, p)
    # the window at 6p occurs at start i + 1 <= 6p exactly when its target
    # LCP is >= n: it must at 6p, and may at 4p only
    off, at = int(summary[:, _batch.OFF_TARGET].max()), int(summary[:, _batch.AT_TARGET].min())

    def counter(j):
        n = ns[j]
        fail = ((summary[:, _batch.OFF_TARGET] >= n)
                | (summary[:, _batch.AT_TARGET] < n)).take(inverse)

        def fields(i):
            pb = _batch.pf_prefix_matrix(rows[i:i + 1], band_length(n)).tobytes()
            target = pb[6 * p - 1:6 * p - 1 + n]
            return {"occurrences": [k + 1 for k in range(6 * p) if pb[k:k + n] == target],
                    "allowed": [4 * p, 6 * p]}
        return _counterexample(n, rows, fail, fields)
    return _band_results(depth, len(rows), [off >= n or at < n for n in ns], counter)


def verify_lemma_first_occurrence(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The window of length n at 6*phi(n) occurs in the prefix of length
    6*phi(n)+n-1 only at starts 4*phi(n) or 6*phi(n).

    The occurrences are the starts whose window shares at least n signs
    with it.  The band's target summary holds, per row, the largest such
    common prefix off those two starts and the one at 6*phi(n) itself.
    """
    _check_range("lemma1", n_lo, n_hi)
    return _run_suite("lemma1", n_lo, n_hi, _lemma1_band)


def _lemma2_band(p, ns, _sampled):
    depth, rows = _grid(ns[0])
    (s, _), (summary, inverse) = (appearance.stored_band(kernel, rows, p) for kernel
                                  in (_batch.band_first_starts, _batch.target_summary))
    # the target's first occurrence; it equals S only if the window at S
    # is the target, so one compare covers both halves of the lemma
    # (NOT_FOUND, where no window reaches n, equals no S).  The store
    # lines two kernels' bands of the same rows up row for row, one inverse
    # for both, so their rows are compared directly
    columns = _columns(ns)
    failing = (s != summary[:, _batch.FIRST_START:]).any(axis=0)[columns]

    def counter(j):
        n, column = ns[j], columns[j]
        s_rows = s[:, column].take(inverse)
        direct_first = summary[:, _batch.FIRST_START + column].take(inverse)

        def fields(i):
            pb = _batch.pf_prefix_matrix(rows[i:i + 1], band_length(n)).tobytes()
            si = int(s_rows[i])
            found = _first_start_field(direct_first[i])
            out = {"s": si, "latest_factor": pb[si - 1:si - 1 + n].decode(),
                   "expected_factor": pb[6 * p - 1:6 * p - 1 + n].decode(),
                   "direct_first_start": found}
            if found is None:
                out["not_found"] = _NOT_FOUND_NOTE.format("n")
            return out
        return _counterexample(n, rows, direct_first != s_rows, fields)
    return _band_results(depth, len(rows), failing, counter)


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
    return _run_suite("lemma2", n_lo, n_hi, _lemma2_band)


def _lemma3_band(p, ns, _sampled):
    depth, rows = _grid(ns[0])
    summary, inverse = appearance.stored_band(_batch.target_summary, rows, p)
    columns, first = _columns(ns), summary[:, _batch.FIRST_START:]
    # a window no start reaches cannot share its first start with the other
    failing = ((first != first[:, appearance.band_index(p)][:, None]).any(axis=0)
               | (first == _batch.NOT_FOUND).any(axis=0))

    def counter(j):
        first_short = summary[:, _batch.FIRST_START + columns[j]].take(inverse)
        first_full = summary[:, _batch.FIRST_START + appearance.band_index(p)].take(inverse)

        def fields(i):
            short, full = _first_start_field(first_short[i]), _first_start_field(first_full[i])
            out = {"first_start_len_n": short, "first_start_len_phi": full}
            if full is None:
                out["not_found"] = _NOT_FOUND_NOTE.format("n" if short is None else "phi(n)")
            return out
        return _counterexample(ns[j], rows, (first_short == _batch.NOT_FOUND)
                               | (first_short != first_full), fields)
    return _band_results(depth, len(rows), failing[columns], counter)


def verify_lemma_shared_start(n_lo: int = 7, n_hi: int = 64) -> VerificationOutcome:
    """The windows of lengths n and phi(n) starting at 6*phi(n) first
    appear at the same index: the first starts whose window shares at
    least n, and all phi(n), signs with the one at 6*phi(n).  A row where
    no start reaches n fails with a counterexample that says so.
    """
    _check_range("lemma3", n_lo, n_hi)
    return _run_suite("lemma3", n_lo, n_hi, _lemma3_band)


def _theorem_band(p, ns, sampled, samples, seed):
    depth = scan_depth(ns[0])
    k = p.bit_length() - 1
    if k + 2 >= depth:
        raise ValueError(f"instruction depth {depth} at n={ns[0]} does not reach "
                         f"f_{k + 2}, which the closed form reads")
    _, rows = _grid(ns[0], sampled, samples, seed)
    s, inverse = appearance.stored_band(_batch.band_first_starts, rows, p)
    columns = _columns(ns)
    # each row's (f_{k+1}, f_{k+2}) class, the first row of each class, and
    # the closed form by class and column; a column of no n of ns is held
    # to 0 and not read
    _, firsts, group = np.unique(2 * rows[:, k + 1] + rows[:, k + 2],
                                 return_index=True, return_inverse=True)
    predicted = np.zeros((len(firsts), s.shape[1]), s.dtype)
    for row, i in zip(predicted, firsts):
        f = FoldingInstructions(rows[i].tolist())
        row[columns] = [predicted_s(f, n) for n in ns]

    def counter(j):
        computed, want = s[:, columns[j]].take(inverse), predicted[group, columns[j]]
        return _counterexample(ns[j], rows, computed != want, lambda i: {
            "computed": int(computed[i]), "predicted": int(want[i])})
    return _band_results(depth, len(rows),
                         _mismatches(s, inverse, group, predicted)[columns], counter)


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
        lambda p, ns, sampled: _theorem_band(p, ns, sampled, samples, seed),
        sampled_from=n_lo if mode == "sampled" else None, seed=seed)


# ---------------------------------------------------------------------------
# corollary tails, monotonicity, symmetry


NON_QUALIFYING_TAILS = ("+;++-", "-;--+", "++;++--", "+-+-;+++-", "+;+-+")


def _tail_rows(width: int, catalog: tuple) -> tuple:
    """(rows, tails, factors) of verify_corollary_tails: its instruction
    rows to `width` signs as one int8 array, family rows then
    the rows of the catalog's texts, so that both read the same bands,
    f_0..f_(m+2) of the top band, phi = 2^m; and each family row's tail
    and S / phi.  A family row is a head of four signs then its tail
    repeated, head by head and each head's tails in turn."""
    heads = appearance.sign_grid(4)
    families = ((4, ((1, -1), (-1, 1))), (6, ((1,), (-1,))))

    def tiled(head, tail):
        """Each row of `head` continued by `tail` repeated, to width signs."""
        tail = np.resize(np.array(tail, np.int8), width - head.shape[-1])
        return np.hstack((head, np.broadcast_to(tail, head.shape[:-1] + tail.shape)))
    rows = np.concatenate(
        [np.stack([tiled(heads, tail) for tail in tails], axis=1).reshape(-1, width)
         for _, tails in families]
        + [tiled(np.array(f.prefix, np.int8), f.tail_period)[None]
           for f in map(parse_instructions, catalog)])
    factors = np.repeat([factor for factor, _ in families],
                        [len(heads) * len(tails) for _, tails in families])
    return rows, tuple(tail for _, tails in families for _ in heads for tail in tails), factors


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
    catalog = NON_QUALIFYING_TAILS
    signs, tail_of, factors = _tail_rows(band_length(max(n_hi, 64)).bit_length(), catalog)

    # every S band the families and the catalog read, each fetched once
    bands = {p: appearance.stored_band(_batch.band_first_starts, signs, p)
             for p in {phi(n) for n in range(7, max(n_hi, 64) + 1)}}
    family = len(factors)
    branches, group = np.unique(factors, return_inverse=True)

    def check_band(p, ns, _sampled):
        s, inverse = bands[p]
        columns = _columns(ns)

        def counter(j):
            observed, expected = s[inverse[:family], columns[j]], factors * p
            return _counterexample(ns[j], signs, observed != expected, lambda i: {
                "expected": int(expected[i]), "observed": int(observed[i]),
                "instructions": format_instructions(
                    FoldingInstructions(tuple(signs[i, :4].tolist()), tail_of[i]))})
        return _band_results(4, family, _mismatches(
            s, inverse[:family], group, (branches * p)[:, None])[columns], counter)

    # the catalog's branches, by entry and n = 7..64
    branch = np.concatenate([bands[p][0][bands[p][1][family:]][:, _columns(ns)] // p
                             for p, ns in groupby(range(7, 65), phi)], axis=1)
    is4, is6 = branch == 4, branch == 6
    mixed = is4.any(axis=1) & is6.any(axis=1) & (is4 | is6).all(axis=1)
    good = len(catalog) if mixed.all() else int(mixed.argmin())
    witnesses = [{"instructions": NON_QUALIFYING_TAILS[e],
                  "n_with_4phi": 7 + int(is4[e].argmax()),
                  "n_with_6phi": 7 + int(is6[e].argmax())} for e in range(good)]
    outcome = _run_suite("corollary-tails", 7, n_hi, check_band,
                         details={"heads": len(appearance.sign_grid(4)), "tails_per_branch": 2,
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

    The other suites read a prefix and its negation from one row of the
    band store, which assumes the invariance checked here, so this suite
    reads the store with that map off: a pattern with f_0 = +1 reads the
    row of its own key, as the other suites do, and one with f_0 = -1 the
    row of its own key too, which only this suite reads, scanned from its
    own prefix, never from its negation's.

    details also records the two readings of the fixed point at n = 7:
    whether S_f(7) = 48 for every f, and whether max_f S_f(7) = 48.
    """
    if depth < 1 or n_max < 1:
        raise ValueError("depth and n_max must be >= 1")
    width = max(depth, scan_depth(n_max))
    if width > EXHAUSTIVE_DEPTH_MAX:
        raise ValueError(f"monotonicity grid width {width} exceeds the "
                         f"{EXHAUSTIVE_DEPTH_MAX}-bit budget")
    rows, extended = appearance.sign_grid(depth), appearance.sign_grid(depth, width)
    # S by (pattern, column) of each band; the negation of pattern i is
    # pattern 2^depth - 1 - i, so a row read in reverse holds the negated S
    bands = {}
    for p in {phi(n) for n in range(1, n_max + 1)}:
        per_key, inverse = appearance.stored_band(_batch.band_first_starts, extended, p,
                                                  by_negation=False)
        bands[p] = per_key[inverse]

    def check_band(p, ns, _sampled):
        """Per pattern, S(n - 1) <= S(n) and S(n) equals the negated pattern's."""
        s, last = bands[p][:, _columns(ns)].T, ns[0] - 1
        before = np.concatenate((s[:1] if last < 1 else
                                 bands[phi(last)][None, :, appearance.band_index(last)], s[:-1]))
        dip = s < before
        fail = dip | (s != s[:, ::-1])

        def counter(j):
            def fields(i):
                kind = ({"kind": "monotonicity", "s_at_n": int(s[j, i]),
                         "s_at_n_minus_1": int(before[j, i])} if dip[j, i] else
                        {"kind": "negation", "s": int(s[j, i]), "s_negated": int(s[j, -1 - i])})
                return {**kind, "instructions": ";" + _row_text(rows[i])}
            return _counterexample(ns[j], rows, fail[j], fields)
        return _band_results(depth, len(rows), fail.any(axis=1), counter)

    details: dict = {"width": width}
    if n_max >= 7:
        sevens = sorted(set(bands[8][:, appearance.band_index(7)].tolist()))
        details["s7_values"] = sevens
        details["s7_universal_48"] = sevens == [48]
        details["s7_max_48"] = sevens[-1] == 48
    return _run_suite("monotonicity", 1, n_max, check_band, details=details)


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

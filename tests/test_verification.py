import collections
import hashlib
import inspect
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldscope import _batch, classifier
from foldscope import (make_instructions, parse_instructions, pf_value, phi, predicted_s,
                       verify_bounds, verify_corollary_tails,
                       verify_formula_vs_dfao, verify_lemma_first_occurrence,
                       verify_lemma_last_factor, verify_lemma_shared_start,
                       verify_monotonicity_and_symmetry, verify_theorem)
from foldscope import appearance as appearance_mod
from foldscope import verification
from foldscope.folding import FoldingInstructions, format_instructions, instruction
from foldscope.verification import VerificationOutcome, dfao_mutation_catalog


@pytest.fixture
def clean_caches():
    verification.clear_caches()
    yield
    verification.clear_caches()


def swapped_predictor(f, n):
    p = phi(n)
    k = p.bit_length() - 1
    return 6 * p if instruction(f, k + 1) != instruction(f, k + 2) else 4 * p


def dropping_scan(prefix, n, limit):
    """Scan mutation: pretends start index 4*phi(n) does not exist."""
    skip = 4 * phi(n)
    firsts = {}
    for i in range(limit):
        if i + 1 == skip:
            continue
        firsts.setdefault(prefix[i:i + n], i + 1)
    return firsts


def kernel_from_scan(scan):
    """A band kernel that reads every (row's prefix, n) off the scalar
    `scan`, so a scan mutation becomes a mutation of the kernel the suites
    call."""
    def kernel(rows, p):
        prefixes = [pb.tobytes() for pb in _batch.pf_prefix_matrix(rows, 7 * p - 1)]
        return np.array([[max(scan(pb, n, 6 * p).values())
                          for n in range(p // 2 + 1, p + 1)] for pb in prefixes],
                        dtype=np.int32).reshape(len(prefixes), p - p // 2)
    return kernel


def kernel_with_s(n, row, value):
    """The band store, except that row `row` (an index or a slice) of the
    rows of every S band holding n reads S(n) = value: that band is handed
    out one row per instruction row, so no other row that shares the
    edited row's key reads the edit."""
    real = appearance_mod.stored_band

    def band(kernel, rows, p, **options):
        per_key, inverse = real(kernel, rows, p, **options)
        if kernel is _batch.band_first_starts and p == phi(n):
            per_key, inverse = per_key[inverse], np.arange(len(rows))
            per_key[row, n - p // 2 - 1] = value
        return per_key, inverse
    return band


def grid_with_copied_target(n, row, to, break_after=False):
    """The real sequence prefixes, except that in the band prefix at n of
    grid row `row` the length-n window at 6*phi(n) is copied to start `to`,
    and with break_after the sign just after the copy differs from the
    target's.  The row is known by the signs its band prefix reads, up to
    negation, as the band kernels key it, and its twin and negation read
    the same prefix there; the fields of a counterexample build their
    row's prefix with pf_prefix_matrix too."""
    real = _batch.pf_prefix_matrix
    length = appearance_mod.band_length(n)
    keyed = length.bit_length()
    key = appearance_mod.sign_grid(appearance_mod.scan_depth(n))[row, :keyed]

    def prefixes(rows, at):
        out = real(rows, at)
        if at == length:
            p = phi(n)
            head = rows[:, :keyed]
            for i in np.flatnonzero((head == key).all(axis=1) | (head == -key).all(axis=1)):
                pb = out[i]
                pb[to - 1:to - 1 + n] = pb[6 * p - 1:6 * p - 1 + n]
                if break_after:
                    pb[to - 1 + n] = ord("+") if pb[6 * p - 1 + n] == ord("-") else ord("-")
        return out
    return prefixes


def json_counterexample(outcome):
    """The counterexample as its JSON line reads back: to_json raises on a
    numpy scalar, which an equality check alone lets through."""
    return json.loads(outcome.to_json())["counterexample"]


# --- outcome type -----------------------------------------------------------

def test_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        VerificationOutcome("x", (1, 2), 4, "exhaustive", passed=True,
                            cases_checked=1, counterexample={"n": 1})
    with pytest.raises(ValueError):
        VerificationOutcome("x", (1, 2), 4, "fuzzy", passed=True, cases_checked=1)


def test_outcome_json_round_trip():
    outcome = verify_lemma_shared_start(7, 8)
    record = json.loads(outcome.to_json())
    assert record["claim"] == "lemma3"
    assert record["passed"] is True
    assert record["n_range"] == [7, 8]
    assert record["cases"] == outcome.cases_checked


# --- formula vs automaton ---------------------------------------------------

def test_formula_dfao_exhaustive():
    outcome = verify_formula_vs_dfao(256, 9)
    assert outcome.passed and outcome.mode == "exhaustive"
    assert outcome.details["grid_patterns"] == 512
    assert outcome.details["grid_skipped_k"] == []
    assert outcome.cases_checked == 512 * 256


def test_formula_dfao_tiny():
    # k_bound=1 is the smallest sweep: one position on each 1-bit pattern
    for k_bound, depth, cases in ((8, 4, 16 * 8), (1, 1, 2)):
        outcome = verify_formula_vs_dfao(k_bound, depth)
        assert outcome.passed and outcome.cases_checked == cases
        assert outcome.details["grid_skipped_k"] == []


@pytest.mark.parametrize("args, mutant", [((1 << 16, 16), None), ((4096,), None),
                                          ((1 << 16, 16), 3)],
                         ids=["depth16", "depth13", "depth16-mutant3"])
def test_formula_dfao_working_set(args, mutant, clean_caches):
    # The automaton-sweep call and run_all's depth-13 call each stay within
    # 1 MiB of traced allocations, grid and sampled streams included, and
    # so does a failing machine at the automaton-sweep size.
    machine = None if mutant is None else dfao_mutation_catalog()[mutant][1]
    tracemalloc.start()
    try:
        outcome = verify_formula_vs_dfao(*args, samples=100, machine=machine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.passed == (machine is None)
    assert peak <= 1 << 20


def test_formula_dfao_depth_check():
    with pytest.raises(ValueError):
        verify_formula_vs_dfao(256, 4)


def test_formula_dfao_catches_corruption():
    _, broken = dfao_mutation_catalog()[7]
    outcome = verify_formula_vs_dfao(64, 7, machine=broken)
    assert not outcome.passed
    ce = outcome.counterexample
    f = parse_instructions(ce["instructions"])
    assert pf_value(f, ce["k"]) == ce["formula"]
    assert ce["dfao"] != ce["formula"]
    assert json_counterexample(outcome) == ce


def test_mutation_catalog_covers_all_transitions(evaluator):
    catalog = dfao_mutation_catalog()
    assert len(catalog) == evaluator.state_count * 4
    assert len({label for label, _ in catalog}) == len(catalog)


# --- bounds -----------------------------------------------------------------

def test_bounds_small_range():
    outcome = verify_bounds(3, 16)
    assert outcome.passed and outcome.mode == "exhaustive"


def test_bounds_single_n_counts():
    outcome = verify_bounds(7, 7)
    assert outcome.passed
    assert outcome.cases_checked == 1 << appearance_mod.scan_depth(7)


def test_bounds_below_seven_skips_min():
    outcome = verify_bounds(3, 6)
    assert outcome.passed
    assert outcome.details["min_checked_from"] == 7


def test_bounds_rejects_too_small_n():
    with pytest.raises(ValueError):
        verify_bounds(1, 8)


def test_range_errors_name_the_calling_claim():
    for suite, args, message in (
            (verify_bounds, (1, 8), "bounds is claimed for n >= 3 only, got n_lo=1"),
            (verify_theorem, (5, 10), "theorem is claimed for n >= 7 only, got n_lo=5"),
            (verify_lemma_first_occurrence, (5, 10), "lemma1 is claimed for n >= 7"),
            (verify_lemma_last_factor, (6, 10), "lemma2 is claimed for n >= 7"),
            (verify_lemma_shared_start, (4, 10), "lemma3 is claimed for n >= 7")):
        with pytest.raises(ValueError, match=message):
            suite(*args)


def test_sampled_caps_admit_their_last_value(clean_caches):
    last = verification.SAMPLED_N_MAX
    assert verify_theorem(last, last, "sampled", samples=4).passed
    assert verify_bounds(last, last, samples=4).passed
    assert verify_bounds(7, 7, samples=verification.SAMPLES_MAX).passed


def test_bounds_sampled_tail(clean_caches):
    outcome = verify_bounds(63, 66, samples=60)
    assert outcome.passed and outcome.mode == "sampled"
    assert outcome.seed is not None


# Each counterexample below was recorded from the per-n list search the
# grid accessor replaced.

@pytest.mark.parametrize("edits, n_lo, n_hi, samples, cases, counter", [
    # every pattern reads S(9) = 64 but pattern 5 reads 90: no pattern
    # attains 6 * phi(9) = 96, and the largest value is pattern 5's
    ([(9, slice(None), 64), (9, 5, 90)], 7, 12, 200, 1280,
     {"n": 9, "kind": "max", "expected": 96, "observed": 90,
      "instructions": "+-+-----"}),
    ([(9, 5, 50)], 7, 12, 200, 1280,
     {"n": 9, "kind": "min", "expected": 64, "observed": 50,
      "instructions": "+-+-----"}),
    ([(66, slice(None), 512), (66, 7, 700)], 65, 67, 20, 72,
     {"n": 66, "kind": "max", "expected": 768, "observed": 700,
      "instructions": "+++-+---+--"}),
    ([(66, 7, 300)], 65, 67, 20, 72,
     {"n": 66, "kind": "min", "expected": 512, "observed": 300,
      "instructions": "+++-+---+--"}),
])
def test_bounds_report_the_extreme_row(clean_caches, monkeypatch, edits, n_lo, n_hi,
                                       samples, cases, counter):
    for edit in edits:  # each edit wraps the one before
        monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(*edit))
    outcome = verify_bounds(n_lo, n_hi, samples=samples)
    assert not outcome.passed and outcome.cases_checked == cases
    assert outcome.counterexample == counter
    assert json_counterexample(outcome) == counter


def test_sample_count_is_the_fewest_distinct_prefixes(clean_caches):
    # duplicate draws are dropped: 191 of 204 streams are distinct at
    # n = 65, 66 and only 103 of the 128 possible ones at n = 7, 8
    bounds = verify_bounds(65, 66)
    assert (bounds.sample_count, bounds.cases_checked) == (191, 2 * 191)
    theorem = verify_theorem(7, 9, "sampled")
    assert theorem.sample_count == 103
    assert verify_bounds(63, 66).sample_count == 191  # n = 63, 64 are a grid


def choice_sample_rows(width, samples, seed):
    """The seeded sample as one rng.choice((-1, 1)) per sign, extremal
    streams first and repeats dropped by dict.fromkeys: the reference for
    _sample_rows' bulk decode of the same generator."""
    rng = random.Random(seed * 1_000_003 + width * 1_009 + samples)
    specials = [
        (1,) * width,
        (-1,) * width,
        tuple(1 if i % 2 == 0 else -1 for i in range(width)),
        tuple(-1 if i % 2 == 0 else 1 for i in range(width)),
    ]
    draws = [tuple(rng.choice((-1, 1)) for _ in range(width)) for _ in range(samples)]
    return np.array(list(dict.fromkeys(specials + draws)), dtype=np.int8)


def test_sample_rows_are_the_choice_draws():
    # row for row the streams of one rng.choice per sign, first
    # occurrences kept, on every width the suites sample (1..18), from no
    # draws up to SAMPLES_MAX, at several seeds
    cases = [(width, samples, seed) for width in range(1, 19)
             for samples in (0, 1, 2, 5, 200) for seed in (0, 7, verification.DEFAULT_SEED)]
    cases += [(width, verification.SAMPLES_MAX, seed) for width in (1, 11, 18)
              for seed in (0, verification.DEFAULT_SEED)]
    for width, samples, seed in cases:
        rows = verification._sample_rows.__wrapped__(width, samples, seed)
        assert rows.dtype == np.int8 and not rows.flags.writeable
        assert np.array_equal(rows, choice_sample_rows(width, samples, seed)), (
            width, samples, seed)


# --- lemmas -----------------------------------------------------------------

@pytest.mark.parametrize("verify", [verify_lemma_first_occurrence,
                                    verify_lemma_last_factor,
                                    verify_lemma_shared_start])
def test_lemmas_pass(verify):
    outcome = verify(7, 16)
    assert outcome.passed and outcome.mode == "exhaustive"
    assert outcome.cases_checked > 0


@pytest.mark.parametrize("verify", [verify_lemma_first_occurrence,
                                    verify_lemma_last_factor,
                                    verify_lemma_shared_start])
def test_lemmas_reject_small_n(verify):
    with pytest.raises(ValueError):
        verify(6, 8)


# Each counterexample below is pinned from a per-row bytes.find search of
# the same crafted grid.

@pytest.mark.parametrize("n, row, to, n_lo, n_hi, cases, counter", [
    (7, 5, 1, 7, 8, 256, {"allowed": [32, 48], "instructions": "+-+----", "n": 7,
                          "occurrences": [1, 48]}),
    # a copied length-12 window holds the length-9 one: n = 9 fails first
    (12, 9, 20, 9, 16, 2048, {"allowed": [64, 96], "instructions": "+--+----", "n": 9,
                              "occurrences": [20, 96]}),
])
def test_lemma1_reports_a_stray_occurrence(clean_caches, monkeypatch, n, row, to,
                                           n_lo, n_hi, cases, counter):
    monkeypatch.setattr(_batch, "pf_prefix_matrix",
                        grid_with_copied_target(n, row, to))
    outcome = verify_lemma_first_occurrence(n_lo, n_hi)
    assert not outcome.passed and outcome.cases_checked == cases
    assert outcome.counterexample == counter
    assert json_counterexample(outcome) == counter


@pytest.mark.parametrize("n, row, to, n_lo, n_hi, cases, counter", [
    (7, 3, 2, 7, 8, 256, {"first_start_len_n": 2, "first_start_len_phi": 48,
                          "instructions": "++-----", "n": 7}),
    (11, 6, 30, 9, 16, 2048, {"first_start_len_n": 30, "first_start_len_phi": 96,
                              "instructions": "-++-----", "n": 9}),
])
def test_lemma3_reports_split_first_starts(clean_caches, monkeypatch, n, row, to,
                                           n_lo, n_hi, cases, counter):
    monkeypatch.setattr(_batch, "pf_prefix_matrix",
                        grid_with_copied_target(n, row, to, break_after=True))
    outcome = verify_lemma_shared_start(n_lo, n_hi)
    assert not outcome.passed and outcome.cases_checked == cases
    assert outcome.counterexample == counter
    assert json_counterexample(outcome) == counter


def test_lemma2_reports_the_row_that_moved(clean_caches, monkeypatch):
    monkeypatch.setattr(_batch, "pf_prefix_matrix",
                        grid_with_copied_target(7, 3, 2, break_after=True))
    outcome = verify_lemma_last_factor(7, 8)
    assert not outcome.passed and outcome.cases_checked == 256
    assert outcome.counterexample == {
        "direct_first_start": 2, "expected_factor": "+++--+-", "instructions": "++-----",
        "latest_factor": "-+++--+", "n": 7, "s": 47}
    assert json_counterexample(outcome) == outcome.counterexample


def regular_rows(bits):
    """The kernel rows of a chunk that hold the band prefix of the regular
    fold, f = +1, +1, ...: grid row 0 (all -1) is keyed as its negation."""
    regular = _batch.pf_prefix_matrix(np.ones((1, bits.shape[1].bit_length()), np.int8),
                                      bits.shape[1])
    return (bits == (regular == ord("+"))).all(axis=1)


def blind_target_kernel(monkeypatch):
    """A target kernel that misses the target window at 6p in the kernel
    row of grid row 0 (regular_rows): its self-comparison column reads 0
    there."""
    real = _batch._chunk_target_lcp

    def kernel(bits, p, ws):
        lcp = real(bits, p, ws)
        lcp[regular_rows(bits), 6 * p - 1] = 0
        return lcp
    monkeypatch.setattr(_batch, "_chunk_target_lcp", kernel)


# Grid row 0 is all '-', so S = 48 at n = 7 and the window at 48 occurs
# nowhere earlier: with the blind kernel no start reaches n.
NOT_FOUND_NOTE = "no start up to 6*phi(n) shares n signs with the window at 6*phi(n)"


def test_lemma2_reports_a_target_no_start_reaches(clean_caches, monkeypatch):
    blind_target_kernel(monkeypatch)
    outcome = verify_lemma_last_factor(7, 8)
    assert not outcome.passed and outcome.cases_checked == 256
    assert outcome.counterexample == {
        "direct_first_start": None, "expected_factor": "+--+--+", "instructions": "-------",
        "latest_factor": "+--+--+", "n": 7, "s": 48, "not_found": NOT_FOUND_NOTE}
    assert json_counterexample(outcome) == outcome.counterexample


def test_lemma3_reports_a_target_no_start_reaches(clean_caches, monkeypatch):
    # neither length reaches a start, so the two first starts read alike
    blind_target_kernel(monkeypatch)
    outcome = verify_lemma_shared_start(7, 8)
    assert not outcome.passed and outcome.cases_checked == 256
    assert outcome.counterexample == {
        "first_start_len_n": None, "first_start_len_phi": None, "instructions": "-------",
        "n": 7, "not_found": NOT_FOUND_NOTE}
    assert json_counterexample(outcome) == outcome.counterexample


def test_lemma1_witness_comes_from_the_bytes(clean_caches, monkeypatch):
    # a target kernel that reports the window at 6p at start 5 of grid
    # row 0 (its kernel row, regular_rows) fails the row, but the
    # occurrences it reports are that row's own byte search
    real = _batch._chunk_target_lcp

    def kernel(bits, p, ws):
        lcp = real(bits, p, ws)
        lcp[regular_rows(bits), 5 - 1] = p
        return lcp
    monkeypatch.setattr(_batch, "_chunk_target_lcp", kernel)
    outcome = verify_lemma_first_occurrence(7, 7)
    counter = outcome.counterexample
    assert not outcome.passed and outcome.cases_checked == 128
    assert (counter["n"], counter["instructions"]) == (7, "-------")
    pb = _batch.pf_prefix_matrix(verification._grid(7)[1][:1], 55).tobytes()
    target, found = pb[47:47 + 7], []
    at = pb.find(target)
    while 0 <= at < 48:
        found.append(at + 1)
        at = pb.find(target, at + 1)
    assert counter["occurrences"] == found == [48]


def test_lemmas_keep_no_whole_target_lcp_array(clean_caches):
    # One band of lemmas, n = 65..128 (2,048 rows).  A cached (rows, 6p)
    # uint16 array alone is 3 MiB there; with it the traced peak was
    # 7.9 MiB, with the per-chunk summaries it is 3.9 MiB.
    tracemalloc.start()
    try:
        for verify in (verify_lemma_first_occurrence, verify_lemma_last_factor,
                       verify_lemma_shared_start):
            assert verify(65, 128).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 << 20


def test_lemma1_regular_first_occurrence_at_48(regular):
    # the length-7 window at 48 occurs nowhere earlier for the regular fold
    from foldscope.appearance import _prefix_bytes
    pb = _prefix_bytes(regular, 103)
    target = pb[47:47 + 7]
    assert pb.find(target) + 1 == 48


def test_lemma3_shared_start_value_n9(regular, alt_tail):
    from foldscope.appearance import _prefix_bytes
    for f, expect in ((regular, 96), (alt_tail, 64)):
        pb = _prefix_bytes(f, 207)
        short = pb[95:95 + 9]
        full = pb[95:95 + 16]
        assert pb.find(short) + 1 == expect
        assert pb.find(full) + 1 == expect


# --- theorem ----------------------------------------------------------------

def test_theorem_exhaustive():
    outcome = verify_theorem(7, 16)
    assert outcome.passed and outcome.mode == "exhaustive"


def test_theorem_sampled(clean_caches):
    outcome = verify_theorem(65, 68, "sampled", samples=40)
    assert outcome.passed and outcome.mode == "sampled"
    assert outcome.seed == verification.DEFAULT_SEED


def test_theorem_rejects_bad_mode():
    with pytest.raises(ValueError):
        verify_theorem(7, 8, "guess")


def test_theorem_swapped_branches_fail_everywhere(monkeypatch):
    monkeypatch.setattr(verification, "predicted_s", swapped_predictor)
    outcome = verify_theorem(7, 8)
    assert not outcome.passed
    ce = outcome.counterexample
    assert ce["computed"] != ce["predicted"]
    assert ce["n"] == 7
    assert json_counterexample(outcome) == ce


def test_theorem_asks_the_closed_form_once_per_pair_class(clean_caches, monkeypatch):
    calls = []

    def counting(f, n):
        calls.append(n)
        return predicted_s(f, n)

    monkeypatch.setattr(verification, "predicted_s", counting)
    assert all(outcome.passed for outcome in verification.run_all(n_max=64))
    # once per (f_{k+1}, f_{k+2}) class at each n = 7..64: 232 calls, where
    # one per enumerated row made 43,264
    assert sorted(calls) == sorted(list(range(7, 65)) * 4)


def test_theorem_counterexample_is_the_failing_row(clean_caches, monkeypatch):
    # pattern 1 ("+-------") reads S(9) = 80; pattern 0 leads its
    # (f_4, f_5) class, so the closed form is asked there and reads 96
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 1, 80))
    outcome = verify_theorem(7, 16)
    assert not outcome.passed and outcome.cases_checked == 2304
    assert outcome.counterexample == {
        "n": 9, "computed": 80, "predicted": 96, "instructions": "+-------"}
    assert json_counterexample(outcome) == outcome.counterexample


# Sampled pattern 7 is "+++-+---+--"; with its S(66) raised to 700 the
# scan disagrees with the closed form.  Pattern 2, with the same (f_8,
# f_9), leads the class, so a closed form that agrees at pattern 7 alone
# is never asked there and the outcome is the same.  Recorded from the
# per-n list search the grid accessor replaced.
SAMPLED_PATTERN_7 = (1, 1, 1, -1, 1, -1, -1, -1, 1, -1, -1)
SAMPLED_COUNTER = {"n": 66, "computed": 700, "predicted": 512,
                   "instructions": "+++-+---+--"}


def agreeing_on_sampled_pattern_7(f, n):
    return 700 if n == 66 and f.prefix == SAMPLED_PATTERN_7 else predicted_s(f, n)


@pytest.mark.parametrize("predictor, counter", [
    (None, SAMPLED_COUNTER),
    (agreeing_on_sampled_pattern_7, SAMPLED_COUNTER),
])
def test_sampled_theorem_reports_the_sampled_row(clean_caches, monkeypatch,
                                                 predictor, counter):
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(66, 7, 700))
    if predictor is not None:
        monkeypatch.setattr(verification, "predicted_s", predictor)
    outcome = verify_theorem(65, 67, "sampled", samples=20)
    assert not outcome.passed and outcome.cases_checked == 72
    assert outcome.counterexample == counter
    assert json_counterexample(outcome) == counter


def test_theorem_depth_guard_names_n_and_depth(monkeypatch):
    # depth 4 stops at f_3, but n=7 reads f_4 and f_5
    monkeypatch.setattr(verification, "scan_depth", lambda n: 4)
    with pytest.raises(ValueError, match=r"depth 4 at n=7"):
        verify_theorem(7, 7)


# --- harness power: scanner mutation ----------------------------------------

def test_dropped_start_detected_by_theorem(clean_caches, monkeypatch):
    monkeypatch.setattr(_batch, "band_first_starts", kernel_from_scan(dropping_scan))
    outcome = verify_theorem(7, 8)
    assert not outcome.passed
    assert outcome.counterexample["computed"] == 6 * 8
    assert outcome.counterexample["predicted"] == 4 * 8
    assert json_counterexample(outcome) == outcome.counterexample


def test_dropped_start_detected_by_lemma2(clean_caches, monkeypatch):
    monkeypatch.setattr(_batch, "band_first_starts", kernel_from_scan(dropping_scan))
    outcome = verify_lemma_last_factor(7, 8)
    assert not outcome.passed
    ce = outcome.counterexample
    assert ce["direct_first_start"] != ce["s"]
    assert json_counterexample(outcome) == ce


def test_late_factor_scan_fails_every_path(clean_caches, monkeypatch):
    real_scan = appearance_mod._scan_first_starts

    def late_factor_scan(prefix, n, limit):
        # a new factor turns up at the last start scanned, so every row
        # reads S = 6*phi(n)
        firsts = real_scan(prefix, n, limit)
        firsts[b"@" * n] = limit
        return firsts

    monkeypatch.setattr(_batch, "band_first_starts", kernel_from_scan(late_factor_scan))
    outcomes = [verify_theorem(65, 65, "sampled", samples=4),
                verify_bounds(65, 65, samples=4),
                verify_bounds(7, 7),
                verify_corollary_tails(n_hi=7)]
    assert [json_counterexample(o) for o in outcomes] == [
        {"n": 65, "instructions": "+-+-+-+-+-+", "computed": 768, "predicted": 512},
        {"n": 65, "instructions": "+++++++++++", "kind": "min",
         "expected": 512, "observed": 768},
        {"n": 7, "instructions": "-------", "kind": "min", "expected": 32, "observed": 48},
        {"n": 7, "instructions": "----;+-", "expected": 32, "observed": 48}]
    assert not any(o.passed for o in outcomes)


# --- corollary tails and monotonicity ---------------------------------------

def test_corollary_tails():
    outcome = verify_corollary_tails(n_hi=32)
    assert outcome.passed
    witnesses = outcome.details["catalog_witnesses"]
    assert len(witnesses) == len(verification.NON_QUALIFYING_TAILS)
    for w in witnesses:
        assert w["n_with_4phi"] != w["n_with_6phi"]


def test_corollary_families_match_prediction():
    # spot-check the two families straight against the scan
    from foldscope import s_value
    f4 = parse_instructions("++++;+-")
    f6 = parse_instructions("----;-")
    for n in (7, 12, 16, 25):
        assert s_value(f4, n) == 4 * phi(n)
        assert s_value(f6, n) == 6 * phi(n)


def test_corollary_tails_catch_one_wrong_family_value(clean_caches, monkeypatch):
    # the first family row is "----;+-", whose S(9) is 4 * 16
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 0, 50))
    outcome = verify_corollary_tails(n_hi=16)
    assert not outcome.passed
    assert outcome.counterexample == {"n": 9, "expected": 64, "observed": 50,
                                      "instructions": "----;+-"}
    assert json_counterexample(outcome) == outcome.counterexample
    # every family row at every n = 7..16, then the whole catalog
    assert outcome.cases_checked == 64 * 10 + 5 * 58


def test_corollary_tails_count_every_n_past_a_failing_row(clean_caches, monkeypatch):
    # row 33 is "----;-", a constant-tail row
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 33, 50))
    outcome = verify_corollary_tails(n_hi=16)
    assert outcome.cases_checked == 64 * 10 + 5 * 58
    assert outcome.counterexample == {"n": 9, "expected": 96, "observed": 50,
                                      "instructions": "----;-"}
    assert json_counterexample(outcome) == outcome.counterexample


def test_corollary_tails_past_the_catalog_window():
    # the families run to n = 256; the catalog keeps its 7..64 window
    outcome = verify_corollary_tails(n_hi=256)
    assert outcome.passed and outcome.n_range == (7, 256)
    assert outcome.cases_checked == 64 * 250 + 5 * 58
    assert (outcome.details["catalog_witnesses"]
            == verify_corollary_tails(n_hi=64).details["catalog_witnesses"])


@pytest.mark.parametrize("n_hi, cases", [(16, 64 * 10 + 2 * 58), (64, 64 * 58 + 2 * 58)])
def test_corollary_tails_reject_a_one_branch_catalog_entry(monkeypatch, n_hi, cases):
    # "+;+" is the regular fold, 6 * phi(n) at every n: the catalog stops
    # there, with the witness of the entry before it
    monkeypatch.setattr(verification, "NON_QUALIFYING_TAILS", ("+;++-", "+;+", "-;--+"))
    outcome = verify_corollary_tails(n_hi=n_hi)
    assert not outcome.passed and outcome.cases_checked == cases
    assert outcome.counterexample == {"catalog_entry": "+;+", "branches_seen": [6],
                                      "expected": "both 4 and 6"}
    assert json_counterexample(outcome) == outcome.counterexample
    assert outcome.details["catalog_witnesses"] == [
        {"instructions": "+;++-", "n_with_4phi": 9, "n_with_6phi": 7}]


def test_monotonicity_and_symmetry():
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert outcome.passed
    assert outcome.cases_checked == 256 * 16
    assert outcome.details["s7_values"] == [32, 48]
    assert outcome.details["s7_universal_48"] is False
    assert outcome.details["s7_max_48"] is True


def test_monotonicity_catches_a_dip(clean_caches, monkeypatch):
    # pattern 0 (all -1) has S(8) = 48 and S(9) = 96
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 0, 1))
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert not outcome.passed and outcome.cases_checked == 256 * 16
    assert outcome.counterexample == {"n": 9, "kind": "monotonicity",
                                      "s_at_n": 1, "s_at_n_minus_1": 48,
                                      "instructions": ";--------"}
    assert json_counterexample(outcome) == outcome.counterexample


def test_monotonicity_catches_a_negation_break(clean_caches, monkeypatch):
    # 50 stays above S(8) but differs from S(9) = 96 of the negated pattern
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 0, 50))
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert not outcome.passed
    assert outcome.counterexample == {"n": 9, "kind": "negation",
                                      "s": 50, "s_negated": 96,
                                      "instructions": ";--------"}
    assert json_counterexample(outcome) == outcome.counterexample


def test_monotonicity_reads_a_pattern_and_its_negation_from_rows_of_their_own(
        clean_caches, monkeypatch):
    # a fault in the kernel rows that start with '-', one more at every n:
    # the other S suites hand the kernel one row per negation pair, which
    # starts with '+', so they pass; monotonicity scans every pattern apart
    real = _batch._chunk_first_starts

    def off_in_minus_rows(bits, p, ws):
        out = real(bits, p, ws)
        out[bits[:, 0] == 0] += 1
        return out
    monkeypatch.setattr(_batch, "_chunk_first_starts", off_in_minus_rows)
    assert verify_bounds(3, 16).passed and verify_theorem(7, 16).passed
    assert verify_corollary_tails(n_hi=16).passed
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert not outcome.passed and outcome.cases_checked == 256 * 16
    # S_f(1) = 3 for f = -1, -1, ...: P_f starts - - + - -, and its
    # negation's row starts with '+'
    assert outcome.counterexample == {"n": 1, "kind": "negation", "s": 4, "s_negated": 3,
                                      "instructions": ";--------"}
    assert json_counterexample(outcome) == outcome.counterexample


@pytest.mark.parametrize("suite, cases, instructions", [
    (lambda: verify_bounds(7, 16), 256 * 9, "+-------"),
    (lambda: verify_theorem(7, 16), 256 * 9, "+-------"),
    (lambda: verify_monotonicity_and_symmetry(8, 16), 256 * 16, ";+-------"),
    (lambda: verify_corollary_tails(n_hi=16), 64 * 10 + 5 * 58, "----;-+"),
], ids=["bounds", "theorem", "monotonicity", "corollary-tails"])
def test_every_s_suite_reports_the_lowest_failing_n(clean_caches, monkeypatch, suite,
                                                    cases, instructions):
    # row 0 breaks at n = 12 and row 1 at n = 9: n = 9 is reported, and
    # every n is still checked and counted
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(12, 0, 50))
    # the second edit wraps the first
    monkeypatch.setattr(appearance_mod, "stored_band", kernel_with_s(9, 1, 50))
    outcome = suite()
    assert outcome.counterexample["n"] == 9
    assert outcome.counterexample["instructions"] == instructions
    assert outcome.cases_checked == cases
    assert json_counterexample(outcome) == outcome.counterexample


# run_all(n_max=2048) with every S read as 0, as its JSON lines read
# before counterexamples were built lazily, when each failing n built its
# own: 4,204 in all, for the five failing outcomes below.
ZERO_S_RUN_ALL_2048 = "3f3afed55659d2dca4abdf4b90330e563beef2a4ba08234b829cb66d8360ae38"


def test_run_all_builds_one_counterexample_per_failing_outcome(clean_caches, monkeypatch):
    # bounds, lemma2, both theorems and corollary-tails fail at every n of
    # their range; each builds the counterexample of its lowest failing n
    # and no other
    monkeypatch.setattr(_batch, "band_first_starts",
                        lambda rows, p: np.zeros((len(rows), p - p // 2), np.int32))
    builds = []
    real = verification._counterexample
    monkeypatch.setattr(verification, "_counterexample",
                        lambda n, *args: builds.append(n) or real(n, *args))
    outcomes = verification.run_all(n_max=2048)
    failing = [o for o in outcomes if not o.passed]
    assert [o.claim_id for o in failing] == ["bounds", "lemma2", "theorem", "theorem",
                                             "corollary-tails"]
    assert builds == [o.counterexample["n"] for o in failing]
    text = "".join(o.to_json() + "\n" for o in outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == ZERO_S_RUN_ALL_2048


# --- determinism -------------------------------------------------------------

def test_outcome_deterministic_across_runs(clean_caches):
    first = verify_bounds(60, 66, samples=40).to_json()
    verification.clear_caches()
    second = verify_bounds(60, 66, samples=40).to_json()
    assert first == second


# Recorded from the per-n skeleton, before suites read a band at a time:
# n = 33..40 of the p = 64 band are a grid and n = 41..64 samples.
BOUNDS_SPLIT_BAND = (
    '{"cases": 9512, "claim": "bounds", "counterexample": null, "details": '
    '{"exhaustive_n_max": 40, "min_checked_from": 33}, "instruction_depth": 11, '
    '"mode": "sampled", "n_range": [33, 70], "passed": true, "sample_count": 44, '
    '"seed": 31337}')
THEOREM_ACROSS_BANDS = (
    '{"cases": 264, "claim": "theorem", "counterexample": null, "details": {}, '
    '"instruction_depth": 11, "mode": "sampled", "n_range": [60, 70], "passed": true, '
    '"sample_count": 24, "seed": 31337}')


def test_sampling_boundary_inside_a_band(clean_caches, monkeypatch):
    monkeypatch.setattr(verification, "EXHAUSTIVE_BOUNDS_N_MAX", 40)
    assert verify_bounds(33, 70, samples=40).to_json() == BOUNDS_SPLIT_BAND
    assert verify_theorem(60, 70, "sampled", samples=20).to_json() == THEOREM_ACROSS_BANDS


def per_n_reference(claim, n_lo, n_hi):
    """The outcome JSON of an exhaustive verify_bounds or verify_theorem,
    the per-n way: at each n, gather the S column of the grid, take its
    first failing row, and report the lowest failing n."""
    cases, depth_max, counter = 0, 0, None
    for n in range(n_lo, n_hi + 1):
        p, depth = phi(n), appearance_mod.scan_depth(n)
        rows, s = appearance_mod.sign_grid(depth), appearance_mod.grid_s_values(n, depth)
        if claim == "bounds":
            kind, expected, observed = "max", 6 * p, int(s.max())
            if observed == expected and n >= 7:
                kind, expected, observed = "min", 4 * p, int(s.min())
            fail = (s == observed) & (observed != expected)
        else:
            k = p.bit_length() - 1
            predicted = np.where(rows[:, k + 1] != rows[:, k + 2], 4 * p, 6 * p)
            fail = s != predicted
        bad = np.flatnonzero(fail)
        if bad.size and counter is None:
            i = int(bad[0])
            counter = {"n": n, "instructions": format_instructions(
                FoldingInstructions(rows[i].tolist()))}
            counter.update({"kind": kind, "expected": expected, "observed": observed}
                           if claim == "bounds" else
                           {"computed": int(s[i]), "predicted": int(predicted[i])})
        cases, depth_max = cases + len(rows), max(depth_max, depth)
    details = ({"exhaustive_n_max": min(n_hi, verification.EXHAUSTIVE_BOUNDS_N_MAX),
                "min_checked_from": max(n_lo, 7)} if claim == "bounds" else {})
    return VerificationOutcome(claim, (n_lo, n_hi), depth_max, "exhaustive",
                               passed=counter is None, cases_checked=cases,
                               counterexample=counter, details=details).to_json()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_band_pass_matches_the_per_n_reference(data):
    # one or two S edits inside a random n range: the band pass reports
    # the outcome the per-n reference does, byte for byte
    claim = data.draw(st.sampled_from(["bounds", "theorem"]))
    n_lo = data.draw(st.integers(3 if claim == "bounds" else 7, 64))
    n_hi = data.draw(st.integers(n_lo, 64))
    edits = []
    for _ in range(data.draw(st.integers(1, 2))):
        n = data.draw(st.integers(n_lo, n_hi))
        p, rows = phi(n), 1 << appearance_mod.scan_depth(n)
        edits.append((n, data.draw(st.integers(0, rows - 1)),
                      data.draw(st.one_of(st.sampled_from((4 * p - 1, 4 * p, 6 * p, 6 * p + 1)),
                                          st.integers(1, 7 * p)))))
    verification.clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for edit in edits:  # each edit wraps the one before
                mp.setattr(appearance_mod, "stored_band", kernel_with_s(*edit))
            verify = verify_bounds if claim == "bounds" else verify_theorem
            assert verify(n_lo, n_hi).to_json() == per_n_reference(claim, n_lo, n_hi)
    finally:
        verification.clear_caches()


# --- band work ---------------------------------------------------------------

def test_run_all_scans_each_distinct_band_prefix_once(clean_caches, monkeypatch):
    # every exhaustive grid enumerates one instruction bit more than its
    # band prefix reads, and holds each pattern with its negation, and the
    # band store keys every request on the m + 3 signs its band prefix
    # reads, up to negation: the lemma kernel sees 480 rows, one per
    # negation pair of the lemmas' grids (960 distinct prefixes).  The S
    # kernel sees 760, each distinct band prefix of the run once: 508 with
    # f_0 = +1, the 496 of the bounds' grids at p = 4..64, which
    # corollary-tails and monotonicity read too, and monotonicity's 12 at
    # p = 1 and 2, and 252 with f_0 = -1, from monotonicity's depth-8 grid
    # read with the map off (4 + 8 + ... + 128 at n = 1..32), which no
    # other suite hands the kernel.  Keyed on each request's rows, the
    # store made 1,138.
    rows = {"_chunk_first_starts": 0, "_chunk_target_lcp": 0}
    minus_first = {"_chunk_first_starts": 0, "_chunk_target_lcp": 0}

    def counting(name):
        real = getattr(_batch, name)

        def kernel(bits, p, ws):
            rows[name] += len(bits)
            minus_first[name] += int((bits[:, 0] == 0).sum())
            return real(bits, p, ws)
        return kernel

    for name in rows:
        monkeypatch.setattr(_batch, name, counting(name))
    assert all(outcome.passed for outcome in verification.run_all(n_max=64))
    assert rows == {"_chunk_first_starts": 760, "_chunk_target_lcp": 480}
    assert minus_first == {"_chunk_first_starts": 252, "_chunk_target_lcp": 0}


def test_run_all_reads_each_band_once_per_suite(clean_caches, monkeypatch):
    # each suite fetches each of its bands from the store once per
    # phi-band, not once per n: bounds 5 (n = 3..64), lemma1, lemma3 and
    # the theorem 4 each, lemma2 4 + 4 (S and the summary), corollary-tails
    # 4, shared by its families and its catalog, and monotonicity 6
    # (n = 1..32).  Only 15 of the 35 reach a kernel: bounds' five S bands
    # and lemma1's four summaries, then monotonicity's p = 1 and 2 and
    # the f_0 = -1 halves at p = 4..32; every other request reads keys an
    # earlier one filled.  Keyed on the rows' bytes, 29 lookups missed 13
    # times, and monotonicity's six bands bypassed the store.
    counts = collections.Counter()
    real_band, real_fill = appearance_mod.stored_band, appearance_mod._BandTable.fill

    def band(*args, **kwargs):
        counts["lookups"] += 1
        return real_band(*args, **kwargs)

    def fill(self, keys):
        counts["fills"] += 1
        return real_fill(self, keys)
    monkeypatch.setattr(appearance_mod, "stored_band", band)
    monkeypatch.setattr(appearance_mod._BandTable, "fill", fill)
    verification.run_all(n_max=64)
    assert counts == {"lookups": 35, "fills": 15}


def test_run_all_keys_each_row_set_once(clean_caches, monkeypatch):
    # a cold run_all keys each read-only row set once per band table and
    # negation map: bounds' grids at p = 4..64 and lemma1's at p = 8..64
    # (lemma2, lemma3 and the theorem read the same grids), corollary-tails'
    # rows at p = 8..64 and monotonicity's grid at p = 1..32 with the map
    # off, 5 + 4 + 4 + 6; every other of the 35 requests is a repeat.  A
    # warm run_all keys nothing and runs no kernel.
    calls = collections.Counter()
    real_keys, real_chunks = appearance_mod._band_keys, _batch._by_chunks

    def keys(*args):
        calls["keys"] += 1
        return real_keys(*args)

    def chunks(*args):
        calls["kernel"] += 1
        return real_chunks(*args)
    monkeypatch.setattr(appearance_mod, "_band_keys", keys)
    monkeypatch.setattr(_batch, "_by_chunks", chunks)
    cold = [outcome.to_json() for outcome in verification.run_all(n_max=64)]
    assert calls == {"keys": 19, "kernel": 15}
    calls.clear()
    assert [outcome.to_json() for outcome in verification.run_all(n_max=64)] == cold
    assert calls == {}


@pytest.mark.parametrize("verify", [verify_theorem, verify_lemma_last_factor,
                                    verify_lemma_shared_start])
def test_band_checks_stay_within_the_stored_band(clean_caches, verify):
    # With the store warm, a check of n = 129..256 reduces over the stored
    # kernel rows: its traced peak stays within the S band's own bytes,
    # where one gathered (rows, band) copy would be 2 MiB
    assert verify(129, 256).passed
    rows = verification._grid(256)[1]
    s_band = appearance_mod.stored_band(_batch.band_first_starts, rows, 256)[0]
    assert s_band.nbytes == 1024 * 128 * 4
    tracemalloc.start()
    try:
        assert verify(129, 256).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= s_band.nbytes


@pytest.mark.parametrize("n_max, s_calls", [(64, 11), (256, 15), (2048, 18)])
def test_one_band_store_computes_each_band_once(clean_caches, monkeypatch, n_max, s_calls):
    # With stub kernels, so that the wide bands cost nothing, a cold
    # run_all hands each kernel each key of each band at most once: the
    # store neither forgets a key it has read nor serves one kernel's band
    # for the other's request (a summary request would then find the S
    # table of the same p, and make no summary call).  The S calls are
    # the requests that meet a key no request read before: the bounds'
    # bands, then at n_max = 256 the theorem's grids at p = 128 and 256,
    # which hold the bounds' samples there, and monotonicity's six; the
    # sampled theorem past 256 reads the bounds' samples.
    calls, keys = collections.Counter(), collections.Counter()

    def stub(name, columns):
        def kernel(rows, p):
            calls[name] += 1
            keys.update((name, p, row.tobytes()) for row in rows)
            return np.zeros((len(rows), columns(p)), np.int32)
        return kernel
    monkeypatch.setattr(_batch, "band_first_starts", stub("S", lambda p: p - p // 2))
    monkeypatch.setattr(_batch, "target_summary",
                        stub("summary", lambda p: _batch.FIRST_START + p - p // 2))
    verification.run_all(n_max=n_max)
    assert set(keys.values()) == {1}
    assert calls == {"S": s_calls, "summary": 4}


@pytest.mark.parametrize("n", [7, 33])
def test_cached_grid_band_keeps_one_row_per_kernel_row(clean_caches, monkeypatch, n):
    # a grid's 2^depth rows are kept as the 2^(depth - 2) keys with f_0 =
    # +1 that its band prefixes read, in key order, and read again in place
    # with the rows' key indices; the S column is gathered from them
    depth, p = appearance_mod.scan_depth(n), phi(n)
    s = appearance_mod.grid_s_values(n, depth)
    grid = appearance_mod.sign_grid(depth)
    monkeypatch.setattr(appearance_mod._BandTable, "fill", None)  # no kernel call
    per_key, inverse = appearance_mod.stored_band(_batch.band_first_starts, grid, p)
    assert per_key.shape == (1 << (depth - 2), p - p // 2) and inverse.shape == (1 << depth,)
    table = appearance_mod._TABLES[_batch.band_first_starts, p]
    assert np.shares_memory(per_key, table.values)
    key = (grid[:, 1:depth - 1] > 0) * grid[:, :1] + (grid[:, :1] < 0)
    assert np.array_equal(inverse, key @ (1 << np.arange(depth - 2)))
    assert np.array_equal(per_key[inverse, appearance_mod.band_index(n)], s)


# --- fault catalog: the band store, its key rule and its column rule --------

def store_without_kernel(mp):
    """The band store keyed on p alone: the first kernel to ask for band p
    fills the one table every later request for p reads."""
    real, kept = appearance_mod._table, {}

    def table(kernel, p):
        if p not in kept:
            kept[p] = real(kernel, p)
        return kept[p]
    mp.setattr(appearance_mod, "_table", table)


def inverse_shifted(mp):
    """The store's key rule shifted by one row: row r reads row r - 1's key."""
    real = appearance_mod._band_keys
    mp.setattr(appearance_mod, "_band_keys",
               lambda rows, p, by_negation: np.roll(real(rows, p, by_negation), 1))


def key_one_sign_short(mp):
    """The store's key rule one sign short: it drops f_(m+2), so a row with
    f_(m+2) = +1 reads the row of its twin with f_(m+2) = -1."""
    real = appearance_mod._band_keys

    def keys(rows, p, by_negation):
        last = 1 << (appearance_mod.band_length(p).bit_length() - 2)
        return real(rows, p, by_negation) & ~last
    mp.setattr(appearance_mod, "_band_keys", keys)


def key_to_row_off_by_one(mp):
    """The store's key -> row map one row late: each key reads the row of
    the next key its table holds, and the last key the first one's."""
    real = appearance_mod._BandTable.rows_of
    mp.setattr(appearance_mod._BandTable, "rows_of",
               lambda self, keys: (real(self, keys) + 1) % len(self.values))


def key_filled_never_written(mp):
    """The first key of each fill is marked filled, but its row is never
    written: it reads zeros."""
    real = appearance_mod._BandTable.fill

    def fill(self, keys):
        real(self, keys)
        self.values[self.rows_of(keys[:1])] = 0
    mp.setattr(appearance_mod._BandTable, "fill", fill)


def negation_off_read_canonically(mp):
    """A request with the negation map off is keyed with it on, so a row
    with f_0 = -1 reads its negation's row, not one of its own."""
    real = appearance_mod._band_keys
    mp.setattr(appearance_mod, "_band_keys", lambda rows, p, by_negation: real(rows, p, True))


def column_one_n_early(mp):
    """The n -> column rule one n early, in every band read (S and the
    lemma summary alike); the first n of a band wraps to its last column."""
    real = appearance_mod.band_index
    mp.setattr(appearance_mod, "band_index", lambda n: real(n) - 1)


# run_all's suites by the claim each reports
RUN_ALL_SUITES = {
    "verify_formula_vs_dfao": "formula-dfao", "verify_bounds": "bounds",
    "verify_lemma_first_occurrence": "lemma1", "verify_lemma_last_factor": "lemma2",
    "verify_lemma_shared_start": "lemma3", "verify_theorem": "theorem",
    "verify_corollary_tails": "corollary-tails",
    "verify_monotonicity_and_symmetry": "monotonicity"}

# fault -> claim -> how the claim kills it: its outcome fails, or its
# suite raises the named error.  A fault no claim killed stays here with
# an empty row.  S is constant across a band from n = 7 on, so the column
# rule shows only where a band reaches below 7: n = 7 then reads S(6),
# whose values 31 and 47 the bounds and the theorem reject.  Without the
# kernel in its key the store hands lemma2 one table for both kernels,
# and its per-column compare of the two meets arrays of unequal width.
# A key one sign short, or rows read one key late, keeps the set of
# values a band holds, which is all that bounds and lemma1 read, and
# lemma2 and lemma3 read S and the summary through the same wrong rows.
# A row read as zeros fails every check but lemma2, where a zero S meets
# a zero (not found) first start.  No claim of run_all kills a
# negation-off request read with the map on: monotonicity then holds S
# and the negated S to the same row; the check that kills it is
# test_monotonicity_reads_a_pattern_and_its_negation_from_rows_of_their_own.
FAULT_KILLS = {
    "store_without_kernel": {"lemma1": "fails", "lemma2": "ValueError",
                             "lemma3": "IndexError"},
    "inverse_shifted": {"theorem": "fails", "corollary-tails": "fails",
                        "monotonicity": "fails", "small-n-tables": "fails"},
    "key_one_sign_short": {"theorem": "fails", "corollary-tails": "fails",
                           "monotonicity": "fails", "small-n-tables": "fails"},
    "column_one_n_early": {"bounds": "fails", "lemma2": "fails", "lemma3": "fails",
                           "theorem": "fails", "corollary-tails": "fails",
                           "monotonicity": "fails", "small-n-tables": "fails"},
    "key_to_row_off_by_one": {"theorem": "fails", "corollary-tails": "fails",
                              "monotonicity": "fails", "small-n-tables": "fails"},
    "key_filled_never_written": {"bounds": "fails", "lemma1": "fails", "lemma3": "fails",
                                 "theorem": "fails", "corollary-tails": "fails",
                                 "monotonicity": "fails", "small-n-tables": "fails"},
    "negation_off_read_canonically": {},
}


def claims_killing(mp):
    """Claim -> how it kills whatever fault is installed, over
    run_all(n_max=16) and the small-n tables."""
    killed = {}

    def caught(claim, suite):
        def run(*args, **kwargs):
            try:
                outcome = suite(*args, **kwargs)
            except Exception as error:
                killed[claim] = type(error).__name__
                return None
            if not outcome.passed:
                killed[claim] = "fails"
            return outcome
        return run
    for name, claim in RUN_ALL_SUITES.items():
        mp.setattr(verification, name, caught(claim, getattr(verification, name)))
    verification.run_all(n_max=16)
    caught("small-n-tables", classifier.check_reported_sets)()
    return killed


def test_band_store_faults_are_killed_as_pinned(clean_caches):
    with pytest.MonkeyPatch.context() as mp:
        assert claims_killing(mp) == {}
    # each fault from cold caches, and none of its bands kept after it
    got = {}
    for fault in (store_without_kernel, inverse_shifted, key_one_sign_short,
                  column_one_n_early, key_to_row_off_by_one, key_filled_never_written,
                  negation_off_read_canonically):
        verification.clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            got[fault.__name__] = claims_killing(mp)
    assert got == FAULT_KILLS
    # the negation fault hides a kernel fault in the rows that start with
    # '-', which only monotonicity hands the kernel
    verification.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        negation_off_read_canonically(mp)
        real = _batch._chunk_first_starts
        mp.setattr(_batch, "_chunk_first_starts",
                   lambda bits, p, ws: real(bits, p, ws) + (bits[:, :1] == 0))
        assert verify_monotonicity_and_symmetry(8, 16).passed


def test_run_all_keeps_the_theorem_exhaustive_up_to_its_grid_budget(monkeypatch):
    # past n = 256 a second, sampled theorem outcome covers the rest, and
    # the exhaustive one still covers every n its grid budget reaches
    calls = []

    def recorder(name):
        signature = inspect.signature(getattr(verification, name))

        def suite(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments))
            return name
        return suite

    suites = ("verify_formula_vs_dfao", "verify_bounds", "verify_lemma_first_occurrence",
              "verify_lemma_last_factor", "verify_lemma_shared_start", "verify_theorem",
              "verify_corollary_tails", "verify_monotonicity_and_symmetry")
    for name in suites:
        monkeypatch.setattr(verification, name, recorder(name))
    for n_max, theorems in ((300, [(7, 256, "exhaustive"), (257, 300, "sampled")]),
                            (64, [(7, 64, "exhaustive")])):
        calls.clear()
        extra = ["verify_theorem"] * (len(theorems) - 1)
        assert verification.run_all(n_max=n_max) == list(suites[:6]) + extra + list(suites[6:])
        asked = [(a["n_lo"], a["n_hi"], a["mode"]) for name, a in calls
                 if name == "verify_theorem"]
        assert asked == theorems


def test_cached_bands_and_summaries_are_read_only(clean_caches):
    # grid_s_values hands out a fresh gather from the one band store, so a
    # write into it changes no later read or suite; the suites read the
    # cached (per_key, inverse) pair of either kernel in place, and it
    # refuses writes, like the grid it is keyed on
    theorem, lemma2 = verify_theorem(7, 8).to_json(), verify_lemma_last_factor(7, 8).to_json()
    depth = appearance_mod.scan_depth(7)
    rows = verification._grid(7)[1]
    column = appearance_mod.grid_s_values(7, depth)
    kept = column.copy()
    column[:] = 0
    assert np.array_equal(appearance_mod.grid_s_values(7, depth), kept)
    for kernel in (_batch.band_first_starts, _batch.target_summary):
        for array in appearance_mod.stored_band(kernel, rows, 8):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        rows[...] = 0
    assert verify_theorem(7, 8).to_json() == theorem
    assert verify_lemma_last_factor(7, 8).to_json() == lemma2

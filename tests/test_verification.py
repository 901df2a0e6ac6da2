import inspect
import json
import tracemalloc

import numpy as np
import pytest

from foldscope import _batch
from foldscope import (make_instructions, parse_instructions, pf_value, phi, predicted_s,
                       verify_bounds, verify_corollary_tails,
                       verify_formula_vs_dfao, verify_lemma_first_occurrence,
                       verify_lemma_last_factor, verify_lemma_shared_start,
                       verify_monotonicity_and_symmetry, verify_theorem)
from foldscope import appearance as appearance_mod
from foldscope import verification
from foldscope.folding import instruction
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
    """The real band kernel, except that row `row` (an index or a slice)
    of every band holding n reads S(n) = value."""
    real = _batch.band_first_starts

    def kernel(rows, p, **private):
        out = real(rows, p, **private)
        if p == phi(n):
            out[row, n - p // 2 - 1] = value
        return out
    return kernel


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
    key = verification._sign_grid(appearance_mod.scan_depth(n))[row, :keyed]

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
        monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(*edit))
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


def blind_target_kernel(monkeypatch):
    """A target kernel that misses the target window at 6p in the first row
    of each chunk: its self-comparison column reads 0 there."""
    real = _batch._chunk_target_lcp

    def kernel(bits, p, ws):
        lcp = real(bits, p, ws)
        lcp[0, 6 * p - 1] = 0
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
    # row 0 (the first row of the only chunk at n = 7) fails the row, but
    # the occurrences it reports are that row's own byte search
    real = _batch._chunk_target_lcp

    def kernel(bits, p, ws):
        lcp = real(bits, p, ws)
        lcp[0, 5 - 1] = p
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
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 1, 80))
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
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(66, 7, 700))
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
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 0, 50))
    outcome = verify_corollary_tails(n_hi=16)
    assert not outcome.passed
    assert outcome.counterexample == {"n": 9, "expected": 64, "observed": 50,
                                      "instructions": "----;+-"}
    assert json_counterexample(outcome) == outcome.counterexample
    # every family row at every n = 7..16, then the whole catalog
    assert outcome.cases_checked == 64 * 10 + 5 * 58


def test_corollary_tails_count_every_n_past_a_failing_row(clean_caches, monkeypatch):
    # row 33 is "----;-", a constant-tail row
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 33, 50))
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
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 0, 1))
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert not outcome.passed and outcome.cases_checked == 256 * 16
    assert outcome.counterexample == {"n": 9, "kind": "monotonicity",
                                      "s_at_n": 1, "s_at_n_minus_1": 48,
                                      "instructions": ";--------"}
    assert json_counterexample(outcome) == outcome.counterexample


def test_monotonicity_catches_a_negation_break(clean_caches, monkeypatch):
    # 50 stays above S(8) but differs from S(9) = 96 of the negated pattern
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 0, 50))
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
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(12, 0, 50))
    # the second edit wraps the first
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 1, 50))
    outcome = suite()
    assert outcome.counterexample["n"] == 9
    assert outcome.counterexample["instructions"] == instructions
    assert outcome.cases_checked == cases
    assert json_counterexample(outcome) == outcome.counterexample


# --- determinism -------------------------------------------------------------

def test_outcome_deterministic_across_runs(clean_caches):
    first = verify_bounds(60, 66, samples=40).to_json()
    verification.clear_caches()
    second = verify_bounds(60, 66, samples=40).to_json()
    assert first == second


# --- band work ---------------------------------------------------------------

def test_run_all_scans_each_distinct_band_prefix_once(clean_caches, monkeypatch):
    # every exhaustive grid enumerates one instruction bit more than its
    # band prefix reads, and holds each pattern with its negation.  One
    # scan per negation pair takes the lemma kernel from 960 rows (one per
    # distinct band prefix) to 480, and the S kernel's rows from the other
    # suites from 1,261 to 634.  Monotonicity adds 504: it scans its
    # depth-8 grid with the map off, every distinct band prefix of
    # n = 1..32 (8 + 16 + ... + 256), and half of them start with '-',
    # which no other suite hands the kernel.
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
    assert rows == {"_chunk_first_starts": 1138, "_chunk_target_lcp": 480}
    assert minus_first == {"_chunk_first_starts": 252, "_chunk_target_lcp": 0}


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
    # S columns and lemma summaries are views into cached arrays: a write
    # into one is refused, and every later read and suite sees what the
    # kernels gave
    theorem, lemma2 = verify_theorem(7, 8).to_json(), verify_lemma_last_factor(7, 8).to_json()
    depth = appearance_mod.scan_depth(7)
    s = appearance_mod.grid_s_values(7, depth)
    kept = s.copy()
    with pytest.raises(ValueError, match="read-only"):
        s[:] = 0
    rows = verification._grid(7)[1]
    summary = verification._target_summary(rows.tobytes(), rows.shape[1], 8)
    first = verification._first_starts_for_n(rows, 7)
    kept = [kept, summary.copy(), first.copy()]
    for array in (summary, first):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0
    assert np.array_equal(appearance_mod.grid_s_values(7, depth), kept[0])
    assert np.array_equal(verification._target_summary(rows.tobytes(), rows.shape[1], 8),
                          kept[1])
    assert np.array_equal(verification._first_starts_for_n(rows, 7), kept[2])
    assert verify_theorem(7, 8).to_json() == theorem
    assert verify_lemma_last_factor(7, 8).to_json() == lemma2

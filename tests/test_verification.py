import json

import numpy as np
import pytest

from foldscope import _batch
from foldscope import (make_instructions, parse_instructions, pf_value, phi,
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
    """A band kernel that reads every (prefix, n) off the scalar `scan`, so
    a scan mutation becomes a mutation of the kernel the suites call."""
    def kernel(prefixes, p):
        return np.array([[max(scan(pb, n, 12 * p).values())
                          for n in range(p // 2 + 1, p + 1)] for pb in prefixes],
                        dtype=np.int32).reshape(len(prefixes), p - p // 2)
    return kernel


def kernel_with_s(n, row, value):
    """The real band kernel, except that prefix `row` of every band holding
    n reads S(n) = value."""
    real = _batch.band_first_starts

    def kernel(prefixes, p):
        out = real(prefixes, p)
        if p == phi(n):
            out[row, n - p // 2 - 1] = value
        return out
    return kernel


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


def test_bounds_sampled_tail(clean_caches):
    outcome = verify_bounds(63, 66, samples=60)
    assert outcome.passed and outcome.mode == "sampled"
    assert outcome.seed is not None


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


def test_theorem_swapped_branches_fail_everywhere():
    outcome = verify_theorem(7, 8, predictor=swapped_predictor)
    assert not outcome.passed
    ce = outcome.counterexample
    assert ce["computed"] != ce["predicted"]
    assert ce["n"] == 7


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


def test_dropped_start_detected_by_lemma2(clean_caches, monkeypatch):
    monkeypatch.setattr(_batch, "band_first_starts", kernel_from_scan(dropping_scan))
    outcome = verify_lemma_last_factor(7, 8)
    assert not outcome.passed
    ce = outcome.counterexample
    assert ce["direct_first_start"] != ce["s"]


def test_dirty_confirmation_window_raises_on_every_path(clean_caches, monkeypatch):
    real_scan = appearance_mod._scan_first_starts

    def dirty_window_scan(prefix, n, limit):
        # a new factor turns up at the last start scanned
        firsts = real_scan(prefix, n, limit)
        firsts[b"@" * n] = limit
        return firsts

    monkeypatch.setattr(_batch, "band_first_starts", kernel_from_scan(dirty_window_scan))
    for run in (lambda: verify_theorem(65, 65, "sampled", samples=4),
                lambda: verify_bounds(65, 65, samples=4),
                lambda: verify_bounds(7, 7),
                lambda: verify_corollary_tails(n_hi=7)):
        with pytest.raises(RuntimeError, match="confirmation window not clean"):
            run()


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


def test_monotonicity_catches_a_negation_break(clean_caches, monkeypatch):
    # 50 stays above S(8) but differs from S(9) = 96 of the negated pattern
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 0, 50))
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert not outcome.passed
    assert outcome.counterexample == {"n": 9, "kind": "negation",
                                      "s": 50, "s_negated": 96,
                                      "instructions": ";--------"}


def test_monotonicity_reports_the_lowest_failing_n(clean_caches, monkeypatch):
    # pattern 0 breaks at n = 12 and pattern 1 at n = 9: n = 9 is reported
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(12, 0, 50))
    # the second edit wraps the first
    monkeypatch.setattr(_batch, "band_first_starts", kernel_with_s(9, 1, 50))
    outcome = verify_monotonicity_and_symmetry(8, 16)
    assert outcome.counterexample["n"] == 9
    assert outcome.counterexample["instructions"] == ";+-------"


# --- determinism -------------------------------------------------------------

def test_outcome_deterministic_across_runs(clean_caches):
    first = verify_bounds(60, 66, samples=40).to_json()
    verification.clear_caches()
    second = verify_bounds(60, 66, samples=40).to_json()
    assert first == second

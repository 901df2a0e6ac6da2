"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
exact; the handful of stated runtime budgets are asserted as hard caps.
"""

import time

from foldscope import (check_reported_sets, parse_instructions, pf_prefix,
                       verify_bounds, verify_corollary_tails,
                       verify_formula_vs_dfao, verify_lemma_first_occurrence,
                       verify_lemma_last_factor, verify_lemma_shared_start,
                       verify_monotonicity_and_symmetry, verify_theorem)
from foldscope.appearance import phi
from foldscope.classifier import (EXPECTED_ROWS_N1, EXPECTED_ROWS_N2,
                                  synthesize_table)
from foldscope.cli import main
from foldscope.folding import instruction
from foldscope.verification import DEFAULT_SEED, dfao_mutation_catalog

# first 64 terms of the regular sequence on the {0,1} alphabet, frozen from
# an independent evaluation of the closed formula (OEIS A014577 convention)
A014577_64 = ("1101100111001001110110001100100111011001110010001101100011001001")

EXPECTED_S_SETS = [(2, 3), (4, 5, 6), (14, 16, 22, 24), (14, 16, 22, 24),
                   (28, 32, 44, 48), (31, 32, 47, 48)]


def report(number, name, ok):
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_prefix_regression(capsys):
    start = time.time()
    regular = parse_instructions("+;+")
    ok = pf_prefix(regular, 8).values == (1, 1, -1, 1, 1, -1, -1, 1)
    code = main(["seq", "-f", "+;+", "-n", "64", "--oeis"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out.strip() == A014577_64
    elapsed = time.time() - start
    with capsys.disabled():
        report(1, "prefix regression", ok and elapsed < 1.0)


def test_criterion_2_formula_dfao_equivalence():
    start = time.time()
    outcome = verify_formula_vs_dfao(1 << 16, 16, samples=100, seed=DEFAULT_SEED)
    elapsed = time.time() - start
    ok = (outcome.passed
          and outcome.details["grid_patterns"] == 1 << 12
          and outcome.details["stream_count"] >= 100
          and outcome.details["stream_skipped_k"] == []
          and elapsed < 60.0)
    report(2, "formula/DFAO equivalence", ok)


def test_criterion_3_bounds():
    start = time.time()
    outcome = verify_bounds(3, 128, samples=200, seed=DEFAULT_SEED)
    elapsed = time.time() - start
    ok = (outcome.passed
          and outcome.details["exhaustive_n_max"] == 64
          and elapsed < 300.0)
    report(3, "max/min bounds attained", ok)


def test_criterion_4_lemmas():
    start = time.time()
    first = verify_lemma_first_occurrence(7, 64)
    last = verify_lemma_last_factor(7, 64)
    shared = verify_lemma_shared_start(7, 64)
    elapsed = time.time() - start
    ok = (first.passed and last.passed and shared.passed
          and all(o.mode == "exhaustive" for o in (first, last, shared))
          and elapsed < 300.0)
    report(4, "first-occurrence lemmas", ok)


def test_criterion_5_theorem():
    exhaustive = verify_theorem(7, 64, "exhaustive")
    sampled = verify_theorem(65, 128, "sampled", samples=200, seed=DEFAULT_SEED)
    ok = exhaustive.passed and sampled.passed
    report(5, "closed form matches scan", ok)


def test_criterion_6_corollary_tails():
    outcome = verify_corollary_tails(n_hi=64)
    ok = (outcome.passed
          and outcome.details["heads"] == 16
          and outcome.details["tails_per_branch"] == 2)
    report(6, "alternating/constant tails", ok)


def test_criterion_7_small_length_tables():
    outcome = check_reported_sets()
    ok = outcome.passed
    for n in range(1, 7):
        ok = ok and synthesize_table(n).value_set == EXPECTED_S_SETS[n - 1]
    ok = ok and synthesize_table(1).rows == EXPECTED_ROWS_N1
    ok = ok and synthesize_table(2).rows == EXPECTED_ROWS_N2
    report(7, "small-length tables", ok)


def test_criterion_8_harness_power():
    catalog = dfao_mutation_catalog()
    detected = 0
    for _, mutant in catalog:
        outcome = verify_formula_vs_dfao(256, 9, machine=mutant)
        if not outcome.passed and outcome.counterexample is not None:
            detected += 1

    def swapped(f, n):
        p = phi(n)
        k = p.bit_length() - 1
        return 6 * p if instruction(f, k + 1) != instruction(f, k + 2) else 4 * p

    swap_outcome = verify_theorem(7, 16, predictor=swapped)
    ok = (detected == len(catalog) == 20
          and not swap_outcome.passed
          and swap_outcome.counterexample is not None)
    report(8, "mutation detection", ok)


def test_criterion_9_properties():
    outcome = verify_monotonicity_and_symmetry(8, 32)
    ok = (outcome.passed and outcome.mode == "exhaustive"
          and outcome.instruction_depth == 8)
    report(9, "monotonicity and negation symmetry", ok)

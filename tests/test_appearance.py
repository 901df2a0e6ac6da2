import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foldscope import _batch
from foldscope import (AppearanceReport, InstructionExhausted, SignWord,
                       a_value, appearance_report, distinct_factors,
                       make_instructions, negate, parse_instructions, phi,
                       predicted_a, predicted_s, report_to_json, s_value,
                       scan_depth)
from foldscope import appearance as appearance_mod

signs = st.sampled_from((-1, 1))

# frozen from an independent first-occurrence scan over the closed formula
REGULAR_S_1_TO_8 = [3, 6, 22, 22, 48, 48, 48, 48]
REGULAR_FACTOR_COUNTS_1_TO_8 = [2, 4, 8, 12, 18, 23, 28, 32]


def test_phi():
    assert phi(7) == 8
    assert phi(8) == 8
    assert phi(9) == 16
    assert phi(1) == 1
    with pytest.raises(ValueError):
        phi(0)


# --- factor scans -----------------------------------------------------------

def test_distinct_factors_length_one(regular):
    factors = distinct_factors(regular, 1)
    assert {w.values: start for w, start in factors.items()} == {
        (1,): 1, (-1,): 3}


def test_distinct_factors_length_two(regular):
    factors = distinct_factors(regular, 2)
    assert len(factors) == 4
    assert sorted(factors.values()) == [1, 2, 3, 6]
    assert {w.values: start for w, start in factors.items()} == {
        (1, 1): 1, (1, -1): 2, (-1, 1): 3, (-1, -1): 6}


def test_distinct_factors_canonical_order(regular):
    words = [w.values for w in distinct_factors(regular, 2)]
    assert words == sorted(words)  # -1 sorts before +1 elementwise


def test_factor_count_linear_bound(regular, alt_tail):
    # the count reaches 4n (it equals 4n for n >= 7) but never exceeds it
    for f in (regular, alt_tail):
        for n in range(1, 11):
            assert len(distinct_factors(f, n)) <= 4 * n


def test_factor_counts_regular(regular):
    counts = [len(distinct_factors(regular, n)) for n in range(1, 9)]
    assert counts == REGULAR_FACTOR_COUNTS_1_TO_8


def test_distinct_factors_exhaustion():
    with pytest.raises(InstructionExhausted):
        distinct_factors(make_instructions([1, 1]), 3)


# --- s and a ----------------------------------------------------------------

def test_s_value_examples(regular):
    assert s_value(regular, 7) == 48
    assert s_value(regular, 1) == 3
    assert s_value(parse_instructions("+-;+"), 1) == 2


def test_s_value_regular_small_lengths(regular):
    assert [s_value(regular, n) for n in range(1, 9)] == REGULAR_S_1_TO_8


def test_a_value(regular):
    assert a_value(regular, 7) == 54
    assert a_value(regular, 1) == s_value(regular, 1)
    f = parse_instructions("-+;-")
    assert a_value(f, 2) == s_value(f, 2) + 1


def test_appearance_report_regular_seven(regular):
    report = appearance_report(regular, 7)
    assert (report.s_value, report.a_value, report.phi_n) == (48, 54, 8)
    assert report.last_factor.first_start == 48
    assert report.factor_count == 28
    assert report.horizon_used == 48


def test_appearance_report_alt_tail_eight(alt_tail):
    report = appearance_report(alt_tail, 8)
    assert (report.s_value, report.a_value) == (32, 39)


def test_appearance_report_regular_three(regular):
    report = appearance_report(regular, 3)
    assert report.s_value == 22
    assert report.s_value in (14, 16, 22, 24)


def test_report_invariants(regular, alt_tail):
    for f in (regular, alt_tail):
        for n in (1, 2, 5, 9, 17):
            report = appearance_report(f, n)
            assert report.a_value == report.s_value + n - 1
            assert report.last_factor.first_start == report.s_value
            if n >= 3:
                assert report.s_value <= 6 * report.phi_n


def test_report_json_schema(regular):
    record = report_to_json(appearance_report(regular, 7))
    assert set(record) == {"n", "phi", "s", "a", "last_factor", "first_start",
                           "factor_count", "horizon"}
    assert record["s"] == 48 and record["a"] == 54
    assert len(record["last_factor"]) == 7
    assert set(record["last_factor"]) <= {"+", "-"}


# --- closed form ------------------------------------------------------------

def test_predicted_s_examples(regular, alt_tail):
    assert predicted_s(regular, 7) == 48
    assert predicted_s(alt_tail, 100) == 512
    with pytest.raises(ValueError):
        predicted_s(regular, 6)


def test_predicted_s_needs_instructions():
    with pytest.raises(InstructionExhausted):
        predicted_s(make_instructions([1, 1, 1, 1, 1]), 7)  # needs f_5


def test_predicted_a_examples(regular, alt_tail):
    assert predicted_a(regular, 7) == 54
    assert predicted_a(alt_tail, 8) == 39
    assert predicted_a(regular, 128) == 6 * 128 + 127


def test_prediction_matches_scan(regular, alt_tail):
    for f in (regular, alt_tail, negate(regular)):
        for n in (7, 8, 12, 16, 31, 33):
            assert predicted_s(f, n) == s_value(f, n)


def test_plateau_within_phi_blocks(regular, alt_tail):
    for f in (regular, alt_tail):
        for block in [(7, 8), (9, 16), (17, 32)]:
            values = {s_value(f, n) for n in range(block[0], block[1] + 1)}
            assert len(values) == 1


@settings(max_examples=25, deadline=None)
@given(bits=st.lists(signs, min_size=6, max_size=6),
       n=st.integers(min_value=1, max_value=12))
def test_negation_invariance(bits, n):
    f = make_instructions(bits, bits)
    assert s_value(f, n) == s_value(negate(f), n)


@settings(max_examples=25, deadline=None)
@given(bits=st.lists(signs, min_size=6, max_size=6),
       n=st.integers(min_value=1, max_value=12))
def test_monotone_in_n(bits, n):
    f = make_instructions(bits, bits)
    assert s_value(f, n) <= s_value(f, n + 1)


def test_bound_compliance_spot(regular, alt_tail):
    for f in (regular, alt_tail):
        for n in range(7, 33):
            s = s_value(f, n)
            assert 4 * phi(n) <= s <= 6 * phi(n)


# --- grid path vs scalar path -----------------------------------------------

def test_grid_s_values_match_scalar():
    for n in (1, 2, 7, 9, 33):
        depth = scan_depth(n)
        grid = appearance_mod.grid_s_values(n, depth)
        assert len(grid) == 1 << depth
        for i in range(1 << depth):
            bits = tuple(1 if (i >> t) & 1 else -1 for t in range(depth))
            assert grid[i] == s_value(make_instructions(bits), n)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), word=st.text("+-", min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
@example(n=1000, word="+", seed=0)
def test_band_kernel_matches_scalar_scan(n, word, seed):
    # n up to 300 reaches phi = 512: windows past 64 signs and three
    # prefix-doubling levels above them
    p = phi(n)
    length = appearance_mod.band_length(n)
    rng = random.Random(seed)
    # one row more than a chunk holds, so the last chunk is a partial one
    count = max(1, _batch.CHUNK_ELEMENTS // length) + 1
    rows = []
    for i in range(count):
        if i % 3 == 0:
            # a periodic word with a few flipped signs: long repeated factors
            signs = list((word * (length // len(word) + 1))[:length])
            for j in rng.sample(range(length), min(length, rng.randint(0, 3))):
                signs[j] = "+" if signs[j] == "-" else "-"
            rows.append("".join(signs).encode())
        elif i % 3 == 1:
            rows.append(bytes(rng.choice(b"+-") for _ in range(length)))
        else:
            bits = tuple(rng.choice((-1, 1)) for _ in range(length.bit_length()))
            rows.append(appearance_mod._prefix_bytes(make_instructions(bits), length))
    band = _batch.band_first_starts(rows, p)
    assert band.shape == (count, p - p // 2)
    for row, got in zip(rows, band[:, n - p // 2 - 1]):
        assert got == max(appearance_mod._scan_first_starts(row, n, 12 * p).values())


def test_window_keys_equal_exactly_when_windows_are():
    # 0^64 1^64 0^63 1 0^64 plus padding: the 64-sign windows rank so that
    # a pair key of left * max_rank + right would merge two distinct
    # 128-sign windows
    row = [0] * 64 + [1] * 64 + [0] * 63 + [1] + [0] * 64 + [0] * 64
    bits = np.array([row], dtype=np.uint8)
    keys = _batch._window_keys(bits, 7)
    for j, key in enumerate(keys):
        windows = np.lib.stride_tricks.sliding_window_view(bits[0], 1 << j)
        _, window_ids = np.unique(windows, axis=0, return_inverse=True)
        assert key.shape == (1, len(windows))
        assert (np.unique(key[0], return_inverse=True)[1].ravel()
                == window_ids.ravel()).all(), j


def test_grid_s_values_width_check():
    with pytest.raises(ValueError):
        appearance_mod.grid_s_values(9, 4)  # 4 bits cannot cover the scan


# --- scan edge paths (reachable only through a patched scanner) -------------

def test_dirty_confirmation_window_raises(regular, monkeypatch):
    real_scan = appearance_mod._scan_first_starts

    def late_factor_scan(prefix, n, limit):
        # a new factor turns up at the last start scanned
        firsts = real_scan(prefix, n, limit)
        firsts[b"@" * n] = limit
        return firsts

    monkeypatch.setattr(appearance_mod, "_scan_first_starts", late_factor_scan)
    for read in (appearance_report, s_value, distinct_factors):
        with pytest.raises(RuntimeError, match="confirmation window not clean"):
            read(regular, 2)


def test_tied_latest_factors_is_an_error(regular, monkeypatch):
    def tying_scan(prefix, n, limit):
        return {b"+" * n: 10, b"-" * n: 10}

    monkeypatch.setattr(appearance_mod, "_scan_first_starts", tying_scan)
    for n in (2, 7):  # a tie is a corrupted scan below length 7 as well
        with pytest.raises(appearance_mod.AmbiguousLastFactor):
            appearance_report(regular, n)

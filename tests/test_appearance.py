import collections
import hashlib
import itertools
import os
import random
import subprocess
import sys

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
from foldscope import verification
from foldscope.folding import pf_prefix, required_instruction_count

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


def test_finite_instructions_answer_when_they_cover_the_scan(regular):
    # the scan reads positions 1..6*phi(n) + n - 1, so exactly that many
    # instruction bits answer and one fewer runs out
    for n in (1, 2, 3, 7, 16, 33):
        bits = required_instruction_count(6 * phi(n) + n - 1)
        report = appearance_report(make_instructions([1] * bits), n)
        assert report == appearance_report(regular, n)
        with pytest.raises(InstructionExhausted):
            appearance_report(make_instructions([1] * (bits - 1)), n)


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


# verify_theorem asks the closed form only at the first row of each
# (f_{k+1}, f_{k+2}) class, where f_0 = -1 on every exhaustive grid; this
# holds it to the scan at any instance
@settings(max_examples=40, deadline=None)
@example(head=[1], tail=[1], n=7)
@given(head=st.lists(signs, max_size=12), tail=st.lists(signs, min_size=1, max_size=6),
       n=st.integers(min_value=7, max_value=300))
def test_closed_form_matches_scan_per_instance(head, tail, n):
    f = make_instructions(head, tail)
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


NEGATE_SIGNS = bytes.maketrans(b"+-", b"-+")


def negated(row):
    """A b'+'/b'-' row with every sign flipped: the prefix of -f, for a
    row that is the prefix of f."""
    return row.translate(NEGATE_SIGNS)


def negation_pairs(rows):
    """How many distinct rows `rows` holds up to negation."""
    return len({frozenset((row, negated(row))) for row in rows})


def on_byte_rows(kernel, rows, p):
    """The chunk kernel `kernel` of _batch, called as kernel(bits, p, ws),
    on b'+'/b'-' rows of at least 7p - 1 signs that need not be sequence
    prefixes: one kernel row per row, in chunks of CHUNK_ELEMENTS // (7p -
    1) rows whose 0/1 signs go to the "bits" of the one _Workspace that
    every chunk of the call fills, as _by_chunks runs the kernels on the
    prefixes of instruction rows."""
    length = 7 * p - 1
    step = max(1, _batch.CHUNK_ELEMENTS // length)
    ws = _batch._Workspace()
    out = []
    for lo in range(0, len(rows), step):
        chunk = [row[:length] for row in rows[lo:lo + step]]
        bits = ws("bits", np.uint8, len(chunk), length)
        raw = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(bits.shape)
        np.equal(raw, ord("+"), out=bits.view(bool))
        # a chunk's result is in the workspace, which the next chunk fills
        out.append(getattr(_batch, kernel)(bits, p, ws).copy())
    return np.concatenate(out)


def band_of_bytes(rows, p):
    """The band_first_starts values of b'+'/b'-' rows (on_byte_rows)."""
    return on_byte_rows("_chunk_first_starts", rows, p)


def summary_of_bytes(rows, p):
    """The target_summary values of b'+'/b'-' rows (on_byte_rows)."""
    return on_byte_rows("_chunk_target_summary", rows, p)


def per_row(band):
    """A stored band's (per_key, inverse) read out as one row per
    instruction row, for comparison with per-row references."""
    per_key, inverse = band
    assert len(inverse) and inverse.max() < len(per_key)
    return per_key[inverse]


def cold_band(kernel, rows, p, **options):
    """stored_band(kernel, rows, p) from an empty band store, so that every
    key of `rows` reaches the kernel."""
    appearance_mod.clear_caches()
    return appearance_mod.stored_band(kernel, rows, p, **options)


def pf_rows_and_prefixes(rows, length):
    """Instruction rows as one int8 array, and each row's prefix of
    `length` signs from the scalar generator, which shares no code with
    pf_prefix_matrix."""
    rows = np.array(rows, dtype=np.int8)
    return rows, [appearance_mod._prefix_bytes(make_instructions(row), length)
                  for row in rows.tolist()]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), word=st.text("+-", min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
@example(n=1000, word="+", seed=0)
def test_band_kernel_matches_scalar_scan(n, word, seed):
    # n up to 300 reaches phi = 512: windows of up to eight 64-sign blocks
    p = phi(n)
    length = appearance_mod.band_length(n)
    rng = random.Random(seed)
    count = max(1, _batch.CHUNK_ELEMENTS // length) + 1
    rows, pf_rows = [], {}
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
            bits = tuple(rng.choice((-1, 1)) for _ in range((13 * p - 1).bit_length()))
            pf_rows[i] = make_instructions(bits)
            rows.append(appearance_mod._prefix_bytes(pf_rows[i], length))
    # the negation of every other row, so that some rows have theirs in
    # the batch and others do not; a paper-folding row's is that of -f
    for i in range(0, count, 2):
        if i in pf_rows:
            pf_rows[len(rows)] = negate(pf_rows[i])
        rows.append(negated(rows[i]))
    chunks = []
    real_chunk = _batch._chunk_first_starts
    with pytest.MonkeyPatch.context() as mp:
        # one row more than a chunk holds, so the last chunk is a partial one
        mp.setattr(_batch, "CHUNK_ELEMENTS", (len(rows) - 1) * length)
        mp.setattr(_batch, "_chunk_first_starts",
                   lambda bits, p, ws: chunks.append(len(bits)) or real_chunk(bits, p, ws))
        band = band_of_bytes(rows, p)
    assert chunks == [len(rows) - 1, 1]
    assert band.shape == (len(rows), p - p // 2)
    for i, (row, got) in enumerate(zip(rows, band[:, n - p // 2 - 1])):
        if i in pf_rows:
            # a paper-folding row: the scalar scan to the old horizon 12*phi
            # over a longer prefix of the same sequence, so the kernel's
            # stop at 6*phi is checked as well
            long_row = appearance_mod._prefix_bytes(pf_rows[i], 13 * p - 1)
            want = max(appearance_mod._scan_first_starts(long_row, n, 12 * p).values())
        else:
            want = max(appearance_mod._scan_first_starts(row, n, 6 * p).values())
        assert got == want


def block_rows(p):
    """Rows of 7p - 1 signs, starting at every 16th sign of the first two
    units of a period of 64 fixed signs and a 16-sign tag, eight times; the
    tags are in turn a count in binary and one fixed word.  The windows at
    the fixed signs share their first 64-sign block and differ in a later
    one, and past a differing tag their blocks can agree again."""
    head = "+-" * 16 + "+" * 16 + "-" * 16
    period = "".join(head + format(k, "016b") + head + "1" * 8 + "0" * 8
                     for k in range(4)).translate(str.maketrans("01", "-+"))
    word = period * (7 * p // len(period) + 2)
    return [word[r:r + 7 * p - 1].encode() for r in range(0, 160, 16)]


@pytest.mark.parametrize("p", [128, 256])
def test_band_kernel_sorts_and_compares_blocks_past_the_first(p):
    rows = block_rows(p)
    for row in rows:
        windows = sorted(range(6 * p), key=lambda i: row[i:i + p])
        lcps = [len(os.path.commonprefix([row[i:i + p], row[j:j + p]]))
                for i, j in zip(windows, windows[1:])]
        assert any(64 <= lcp < p for lcp in lcps)
    band = band_of_bytes(rows, p)
    for row, got in zip(rows, band):
        want = [max(appearance_mod._scan_first_starts(row, n, 6 * p).values())
                for n in range(p // 2 + 1, p + 1)]
        assert got.tolist() == want


def scalar_band(row, p):
    """S(n) for n = p//2 + 1 .. p by the scalar scan of starts 1..6p."""
    return [max(appearance_mod._scan_first_starts(row, n, 6 * p).values())
            for n in range(p // 2 + 1, p + 1)]


@pytest.mark.parametrize("p", [1, 2])
def test_band_kernel_matches_scalar_scan_on_every_row_at_p_1_and_2(p):
    # p // 2 is 0 and 1: every row of 6 and of 13 signs
    rows = [bytes(row) for row in itertools.product(b"+-", repeat=7 * p - 1)]
    band = band_of_bytes(rows, p)
    assert band.tolist() == [scalar_band(row, p) for row in rows]


def long_chain_rows(p, count, seed):
    """Rows of 7p - 1 signs whose windows all share more than p/2 signs: a
    constant row of each sign, then rows of 6p + p//2 '+' and a random tail."""
    length, head = 7 * p - 1, 6 * p + p // 2
    rng = random.Random(seed)
    return [b"+" * length, b"-" * length] + [
        b"+" * head + bytes(rng.choice(b"+-") for _ in range(length - head))
        for _ in range(count)]


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 64, 128, 256])
def test_band_kernel_follows_chains_to_the_row_end(monkeypatch, p):
    # every sorted neighbour shares more than p/2 signs, so no chain stops
    # at a short LCP: in a constant row each runs to its row's end, and the
    # rows meet inside one chunk, where a chain that left its row would
    # read the next row's ranks.  The constant rows and the last two are
    # negation pairs.
    rows = long_chain_rows(p, 4, seed=p)
    rows.append(negated(rows[-1]))
    for row in rows:
        windows = sorted(range(6 * p), key=lambda i: row[i:i + p])
        assert all(row[i:i + p // 2 + 1] == row[j:j + p // 2 + 1]
                   for i, j in zip(windows, windows[1:]))
    chunks = []
    real_chunk = _batch._chunk_first_starts
    monkeypatch.setattr(_batch, "_chunk_first_starts",
                        lambda bits, p, ws: chunks.append(len(bits)) or real_chunk(bits, p, ws))
    band = band_of_bytes(rows, p)
    assert chunks == [len(rows)]
    assert band.tolist() == [scalar_band(row, p) for row in rows]


def ties_reordered(how, seed):
    """A _window_order that puts every run of equal windows the real one
    gives in reverse start order (how="reverse") or in a seeded shuffle
    (how="shuffle"), and counts in .changed the rows whose order moved.
    Two windows are equal when every one of their block codes is."""
    real = _batch._window_order
    rng = np.random.default_rng(seed)

    def window_order(codes, p, ws):
        order = real(codes, p, ws)
        out = np.empty_like(order)
        for i, (row_codes, row) in enumerate(zip(codes, order)):
            blocks = np.stack([row_codes[row + b] for b in range(0, p, min(p, 64))])
            run = np.cumsum(np.r_[True, (blocks[:, 1:] != blocks[:, :-1]).any(axis=0)])
            within = -row if how == "reverse" else rng.permutation(len(row))
            out[i] = row[np.lexsort((within, run))]
            window_order.changed += not np.array_equal(out[i], row)
        return out
    window_order.changed = 0
    return window_order


@pytest.mark.parametrize("p", [1, 8, 32, 64, 128, 256])
def test_band_kernel_reads_no_order_of_equal_windows(monkeypatch, p):
    # Tie-heavy rows: the constant rows and the long-chain rows, whose
    # sorted windows all share more than p/2 signs, and the periodic rows
    # of the block test, whose equal windows span several blocks.  With
    # every run of equal windows reversed or shuffled the band is still the
    # scalar scan's, and the reordering moves the order of most rows.
    rows = long_chain_rows(p, 2, seed=p) + block_rows(p)[::3]
    want = [scalar_band(row, p) for row in rows]
    for how in ("reverse", "shuffle"):
        window_order = ties_reordered(how, seed=p)
        monkeypatch.setattr(_batch, "_window_order", window_order)
        assert band_of_bytes(rows, p).tolist() == want, how
        assert window_order.changed >= len(rows) // 2, how


@st.composite
def code_rows(draw):
    """(rows, columns) uint64 codes drawn from a pool of at most eight
    values, so that most codes repeat; up to 300 columns, so that ranks
    come in uint8 and in uint16."""
    pool = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True))
    shape = draw(st.integers(1, 3)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(pool, dtype=np.uint64)[rng.integers(0, len(pool), shape)]


@settings(max_examples=60, deadline=None)
@given(codes=code_rows())
@example(codes=np.array([[2**64 - 1, 0, 2**63, 2**63 - 1, 0, 2**64 - 1]], dtype=np.uint64))
def test_dense_ranks_are_dense_and_keep_order(codes):
    # a workspace of junk: every entry the ranks read is written first
    ranks = _batch._dense_ranks(codes, PoisonedWorkspace())
    assert ranks.shape == codes.shape
    assert ranks.dtype == np.min_scalar_type(codes.shape[1] - 1)
    for code_row, rank_row in zip(codes, ranks):
        assert np.array_equal(code_row[:, None] < code_row, rank_row[:, None] < rank_row)
        assert np.array_equal(code_row[:, None] == code_row, rank_row[:, None] == rank_row)
        assert rank_row.max() == len(set(code_row.tolist())) - 1


def test_workspace_refuses_an_array_it_cannot_hand_out():
    # a request in another dtype or for more entries than the first names
    # the array; the arange grows to the largest size asked for
    ws = _batch._Workspace()
    assert ws.arange(4).tolist() == [0, 1, 2, 3]
    assert ws.arange(10).tolist() == list(range(10))
    assert ws.arange(3).tolist() == [0, 1, 2]
    first = ws("a", np.uint16, 2, 3)
    with pytest.raises(ValueError, match="^workspace array 'a' is uint16, not uint64$"):
        ws("a", np.uint64, 2, 3)
    with pytest.raises(ValueError, match="^workspace array 'a' holds 6 entries, not 16$"):
        ws("a", np.uint16, 4, 4)
    # a smaller request, in any shape, is the start of the first
    first[...] = np.arange(6).reshape(2, 3)
    assert ws("a", np.uint16, 5).tolist() == [0, 1, 2, 3, 4]
    assert ws("a", np.uint16, 3, 2).tolist() == [[0, 1], [2, 3], [4, 5]]


# The bands of every instruction row at phi = 256 and 512, four and eight
# 64-sign blocks a window, as sha256 of their little-endian int32 bytes.
MULTI_BLOCK_BANDS = {
    (11, 256): "abd085cae3399456ca0e06b9cff62312d62928be000b2cc0a13d8ffa0d5e7018",
    (12, 512): "9a8eda7ce1240b1495fc2b9d9265c2abf8a2fcb972b0c49e6ead9f8ae233354d",
}


@pytest.mark.parametrize("depth, p", MULTI_BLOCK_BANDS)
def test_multi_block_bands_are_pinned(depth, p):
    # the grid holds exactly the m + 3 bits the band prefix reads, so the
    # store keeps one row per negation pair and one index per grid row
    per_key, inverse = cold_band(_batch.band_first_starts, _batch.sign_grid(depth), p)
    assert per_key.dtype == np.int32 and per_key.shape == (1 << (depth - 1), p - p // 2)
    assert inverse.shape == (1 << depth,)
    band = per_row((per_key, inverse))
    assert hashlib.sha256(band.astype("<i4").tobytes()).hexdigest() == MULTI_BLOCK_BANDS[depth, p]


def brute_target_lcp(pb, p):
    target = pb[6 * p - 1:7 * p - 1]
    return [next((c for c in range(p) if pb[i + c] != target[c]), p)
            for i in range(6 * p)]


@settings(max_examples=30, deadline=None)
@given(j=st.integers(0, 8), extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(j=7, extra=0, seed=1)
@example(j=8, extra=0, seed=2)
def test_target_lcp_matches_byte_comparison(j, extra, seed):
    # p = 1..256: one block of p signs up to 64, two and four 64-sign blocks
    p = 1 << j
    length = 7 * p - 1 + extra
    rng = random.Random(seed)
    rows = []
    for i in range(7):
        pb = bytearray(rng.choice(b"+-") for _ in range(length))
        # copies of the target with one sign changed give common prefixes
        # of every length, across block boundaries too
        for _ in range(i % 4):
            to, cut = rng.randrange(6 * p - 1), rng.randrange(p + 1)
            pb[to:to + p] = pb[6 * p - 1:7 * p - 1]
            if cut < p:
                pb[to + cut] = ord("+") if pb[to + cut] == ord("-") else ord("-")
        rows.append(bytes(pb))
    # rows whose negation is in the batch too, and rows whose is not
    rows += [negated(rows[0]), negated(rows[3])]
    seen = []
    real_chunk = _batch._chunk_target_lcp

    def recording(bits, p, ws):
        lcp = real_chunk(bits, p, ws)
        seen.append(lcp.copy())  # the summary takes a running maximum in place
        return lcp
    with pytest.MonkeyPatch.context() as mp:
        # two rows per chunk, the last one partial for an odd count
        mp.setattr(_batch, "CHUNK_ELEMENTS", 2 * (7 * p - 1))
        mp.setattr(_batch, "_chunk_target_lcp", recording)
        summary_of_bytes(rows, p)
    pairs, odd = divmod(len(rows), 2)
    assert [len(lcp) for lcp in seen] == [2] * pairs + [1] * odd
    got = np.concatenate(seen)
    assert got.shape == (len(rows), 6 * p)
    for row, lcp in zip(rows, got):
        assert lcp.tolist() == brute_target_lcp(row, p)


def summary_from_array(lcp, p):
    """The target summary read off a whole (rows, 6p) target-LCP array: the
    largest LCP off starts 4p and 6p, the LCP at 6p, and per n of the band
    the argmax of lcp >= n, or NOT_FOUND."""
    off = np.delete(lcp, [4 * p - 1, 6 * p - 1], axis=1).max(axis=1)
    firsts = [np.where((lcp >= n).any(axis=1), (lcp >= n).argmax(axis=1) + 1,
                       _batch.NOT_FOUND) for n in range(p // 2 + 1, p + 1)]
    return np.column_stack([off, lcp[:, 6 * p - 1]] + firsts)


@settings(max_examples=30, deadline=None)
@given(j=st.integers(3, 7), per_chunk=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(j=7, per_chunk=1, seed=3)
def test_target_summary_matches_the_target_lcp_array(j, per_chunk, seed):
    # p = 8..128; rows are random signs with copies of the target window
    # cut at every length (so several starts tie at one LCP), and
    # paper-folding prefixes (their target first occurs at 4p or at 6p)
    p = 1 << j
    length = 7 * p - 1
    rng = random.Random(seed)
    rows = []
    for i in range(4):
        pb = bytearray(rng.choice(b"+-") for _ in range(length))
        for _ in range(i):
            to, cut = rng.randrange(6 * p - 1), rng.randrange(p + 1)
            pb[to:to + p] = pb[6 * p - 1:7 * p - 1]
            if cut < p:
                pb[to + cut] = ord("+") if pb[to + cut] == ord("-") else ord("-")
        rows.append(bytes(pb))
    rows += [appearance_mod._prefix_bytes(
        make_instructions([rng.choice((-1, 1)) for _ in range(j + 4)]), length)
        for _ in range(4)]
    # rows whose negation is in the batch too, and rows whose is not
    rows += [negated(rows[1]), negated(rows[5])]
    # a kernel blind to the target itself in every row whose first two
    # signs are equal, so that rows where no start reaches n occur too
    real_chunk = _batch._chunk_target_lcp

    def half_blind(bits, p, ws):
        lcp = real_chunk(bits, p, ws)
        lcp[bits[:, 0] == bits[:, 1], 6 * p - 1] = 0
        return lcp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_batch, "_chunk_target_lcp", half_blind)
        mp.setattr(_batch, "CHUNK_ELEMENTS", per_chunk * length)
        got = summary_of_bytes(rows, p)
    # the reference compares bytes and blinds the same rows, with no kernel
    lcp = np.array([brute_target_lcp(row, p) for row in rows])
    lcp[[row[0] == row[1] for row in rows], 6 * p - 1] = 0
    want = summary_from_array(lcp, p)
    assert got.dtype == np.int32 and got.shape == (len(rows), 2 + p // 2)
    assert np.array_equal(got, want)


# The target-LCP kernel is read through its one product, target_summary;
# its test ids keep the kernel's name.
BAND_KERNELS = [(_batch.band_first_starts, "_chunk_first_starts"),
                pytest.param(_batch.target_summary, "_chunk_target_lcp",
                             id="target_lcp-_chunk_target_lcp")]


@pytest.mark.parametrize("kernel, chunk_name", BAND_KERNELS)
@pytest.mark.parametrize("p", [1, 4, 128])
def test_band_kernels_scan_repeated_prefixes_once(monkeypatch, kernel, chunk_name, p):
    # instruction rows of m + 5 columns, p = 2^m: five in distinct negation
    # pairs (four at p = 1, which has no more), either sign first, each
    # repeated with its own signs past f_(m+2), which the band prefix does
    # not read, shuffled
    keyed = (7 * p - 1).bit_length()
    rng = random.Random(p)
    heads = {}
    while len(heads) < min(5, 1 << (keyed - 1)):
        heads[(1,) + tuple(rng.choice((-1, 1)) for _ in range(keyed - 1))] = rng.choice((-1, 1))
    heads = [[sign * v for v in head] for head, sign in heads.items()]
    rows = [head + [rng.choice((-1, 1)) for _ in range(2)] for head in heads * 3 + heads[:2]]
    rng.shuffle(rows)
    rows = np.array(rows, dtype=np.int8)
    alone = np.concatenate([kernel(row[None], p) for row in rows])
    seen = []
    real_chunk = getattr(_batch, chunk_name)
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * (7 * p - 1))
    monkeypatch.setattr(_batch, chunk_name,
                        lambda bits, p, ws: seen.append(len(bits)) or real_chunk(bits, p, ws))
    per_key, inverse = cold_band(kernel, rows, p)
    pairs, odd = divmod(len(heads), 2)
    assert seen == [2] * pairs + [1] * odd
    assert per_key.dtype == alone.dtype and np.array_equal(per_row((per_key, inverse)), alone)
    # one stored row per head, which every copy and twin of it reads
    assert len(per_key) == len(heads) and inverse.shape == (len(rows),)
    twin = next(i for i in range(1, len(rows)) if (rows[i, :keyed] == rows[0, :keyed]).all())
    assert inverse[twin] == inverse[0]


@pytest.mark.parametrize("p", [1, 4, 64, 128])
def test_band_kernels_scan_a_prefix_and_its_negation_once(monkeypatch, p):
    # Instruction rows of m + 4 columns, p = 2^m: two with their negation
    # in the batch and two without, one of each first sign; a row with its
    # twin that differs only at f_(m+2), the last sign the band prefix
    # reads; a row with the one that differs only at f_0; and copies of
    # the paired rows that differ past f_(m+2).  A key one sign short
    # merges the twins, and one that sets f_0 to +1 without negating the
    # rest merges the rows that differ only at f_0 and splits the
    # negation pairs; either changes the kernels' row count.
    keyed = (7 * p - 1).bit_length()
    rng = random.Random(p)

    def draw(first):
        return [first] + [rng.choice((-1, 1)) for _ in range(keyed)]

    def flipped(row, *at):
        return [-v if t in at else v for t, v in enumerate(row)]
    paired, alone, twin, first = [draw(1), draw(-1)], [draw(1), draw(-1)], draw(-1), draw(1)
    rows, prefixes = pf_rows_and_prefixes(
        paired + alone + [twin, flipped(paired[1], *range(keyed + 1)), flipped(twin, keyed - 1),
                          flipped(paired[0], *range(keyed + 1)), first, flipped(first, 0)]
        + [flipped(row, keyed) for row in paired], 7 * p - 1)
    # reference values from the scalar scan and the byte comparison alone
    want_band = [scalar_band(pb, p) for pb in prefixes]
    want_summary = summary_from_array(
        np.array([brute_target_lcp(pb, p) for pb in prefixes]), p).tolist()
    # the faults show: each merged pair holds distinct prefixes
    assert prefixes[4] != prefixes[6] and prefixes[8] != prefixes[9]
    assert negated(prefixes[0]) == prefixes[7] and prefixes[0] == prefixes[10]
    seen = {"_chunk_first_starts": 0, "_chunk_target_lcp": 0}

    def counting(name):
        real = getattr(_batch, name)

        def kernel(bits, p, ws):
            seen[name] += len(bits)
            return real(bits, p, ws)
        return kernel
    for name in seen:
        monkeypatch.setattr(_batch, name, counting(name))
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * (7 * p - 1))
    assert per_row(cold_band(_batch.band_first_starts, rows, p)).tolist() == want_band
    assert per_row(cold_band(_batch.target_summary, rows, p)).tolist() == want_summary
    assert seen == dict.fromkeys(seen, negation_pairs(prefixes))


@st.composite
def keyed_batches(draw):
    """(p, instruction rows): rows of m + 3 to m + 6 columns, p = 2^m <=
    256, then copies, twins that differ only past f_(m+2) and negations of
    rows drawn before."""
    j, extra = draw(st.integers(0, 8)), draw(st.integers(0, 3))
    keyed, width = j + 3, j + 3 + extra
    sign_rows = st.lists(st.sampled_from((-1, 1)), min_size=width, max_size=width)
    rows = draw(st.lists(sign_rows, min_size=1, max_size=3))
    for kind in draw(st.lists(st.sampled_from(("copy", "twin", "negation")), max_size=5)):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "twin" and extra:
            t = draw(st.integers(keyed, width - 1))
            row = row[:t] + [-row[t]] + row[t + 1:]
        elif kind == "negation":
            row = [-v for v in row]
        rows.append(row)
    return 1 << j, rows


@settings(max_examples=20, deadline=None)
@given(batch=keyed_batches())
@example(batch=(1, [list(row) for row in itertools.product((-1, 1), repeat=4)]))
def test_band_kernels_see_each_distinct_key_once(batch):
    # every row reads the values of its own prefix from the scalar scan and
    # the byte comparison, and the kernels see each distinct f_0..f_(m+2)
    # once, up to negation with the map on and as it is with it off: as
    # many as there are distinct prefixes, up to negation or not
    p, rows = batch
    keyed = p.bit_length() + 2
    rows, prefixes = pf_rows_and_prefixes(rows, 7 * p - 1)
    keys = {tuple(row[:keyed]) for row in rows.tolist()}
    pair_keys = {frozenset((key, tuple(-v for v in key))) for key in keys}
    assert (len(keys), len(pair_keys)) == (len(set(prefixes)), negation_pairs(prefixes))
    want = {pb: (scalar_band(pb, p), summary_from_array(
        np.array([brute_target_lcp(pb, p)]), p)[0].tolist()) for pb in set(prefixes)}
    seen = []

    def kernel_rows(kernel, **options):
        seen.clear()
        per_key, inverse = cold_band(kernel, rows, p, **options)
        assert len(per_key) == sum(seen)
        return per_row((per_key, inverse)).tolist(), sum(seen)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_chunk_first_starts", "_chunk_target_lcp"):
            real = getattr(_batch, name)
            mp.setattr(_batch, name, lambda bits, p, ws, real=real:
                       seen.append(len(bits)) or real(bits, p, ws))
        # a few rows a chunk, so that most batches take more than one
        mp.setattr(_batch, "CHUNK_ELEMENTS", 3 * (7 * p - 1))
        band = kernel_rows(_batch.band_first_starts)
        raw = kernel_rows(_batch.band_first_starts, by_negation=False)
        summary = kernel_rows(_batch.target_summary)
    want_band = [want[pb][0] for pb in prefixes]
    assert band == (want_band, len(pair_keys)) and raw == (want_band, len(keys))
    assert summary == ([want[pb][1] for pb in prefixes], len(pair_keys))


SIGNS = st.sampled_from((-1, 1))


@st.composite
def band_requests(draw):
    """Band store requests (kernel name, p, rows, by_negation) at one or
    two p = 2^j <= 256, in any order: grids of m + 3 or m + 4 bits (to p =
    64), a few random rows, and corollary-style rows, a head of four signs
    then a periodic tail, each read with the negation map on or off; and
    repeats of earlier requests, their rows a writable copy or a strided
    view, after whatever the requests between them filled."""
    js = draw(st.lists(st.integers(0, 8), min_size=1, max_size=2, unique=True))
    requests = []
    for _ in range(draw(st.integers(1, 6))):
        if requests and draw(st.booleans()):
            name, p, rows, by_negation = draw(st.sampled_from(requests))
            rows = np.array(rows) if draw(st.booleans()) else np.repeat(rows, 2, axis=0)[::2]
            requests.append((name, p, rows, by_negation))
            continue
        j = draw(st.sampled_from(js))
        kind = draw(st.sampled_from(("grid", "sampled", "corollary")[j > 6:]))
        keyed = j + 3
        width = keyed + draw(st.integers(0, 2))
        if kind == "grid":
            rows = appearance_mod.sign_grid(keyed + draw(st.integers(0, 1)))
        elif kind == "sampled":
            rows = np.array(draw(st.lists(st.lists(SIGNS, min_size=width, max_size=width),
                                          min_size=1, max_size=8)), np.int8)
        else:
            heads = draw(st.lists(st.lists(SIGNS, min_size=4, max_size=4),
                                  min_size=1, max_size=16))
            tails = draw(st.lists(st.sampled_from(((1, -1), (-1, 1), (1,), (-1,))),
                                  min_size=1, max_size=2))
            rows = np.array([(head + list(tail) * width)[:max(width, 4)]
                             for head in heads for tail in tails], np.int8)
        requests.append((draw(st.sampled_from(("S", "summary"))), 1 << j, rows,
                         draw(st.booleans())))
    return requests


@settings(max_examples=30, deadline=None)
@given(requests=band_requests())
def test_band_store_reads_what_a_cold_kernel_call_gives(requests):
    # every request reads, row for row, what one kernel call on its rows
    # alone gives, however the requests before it filled the store, and no
    # key of a band reaches a kernel twice
    real = {"S": _batch.band_first_starts, "summary": _batch.target_summary}
    seen = collections.Counter()

    def counted(name):
        def kernel(rows, p):
            seen.update((name, p, row.tobytes()) for row in rows)
            return real[name](rows, p)
        return kernel
    kernels = {name: counted(name) for name in real}
    appearance_mod.clear_caches()
    for name, p, rows, by_negation in requests:
        band = appearance_mod.stored_band(kernels[name], rows, p, by_negation=by_negation)
        assert np.array_equal(per_row(band), real[name](rows, p))
    assert set(seen.values()) <= {1}


def test_band_store_keys_equal_rows_once(monkeypatch):
    # a read is keyed on its first request for a kernel, rows' bytes and
    # negation setting, and every repeat with equal rows, a writable copy
    # as well, is handed that read's pair; the other setting and the other
    # kernel's table are keyed once each, the cache holds at most
    # CACHE_SIZE reads, and a read it evicted is keyed again, to equal values
    appearance_mod.clear_caches()
    s, summary = _batch.band_first_starts, _batch.target_summary
    rows = appearance_mod.sign_grid(7)
    first = appearance_mod.stored_band(s, rows, 8)
    keyed = []
    real = appearance_mod._band_keys
    monkeypatch.setattr(appearance_mod, "_band_keys",
                        lambda *args: keyed.append(args[1:]) or real(*args))
    for equal in (rows, np.array(rows)):
        again = appearance_mod.stored_band(s, equal, 8)
        assert again[0] is first[0] and again[1] is first[1]
    assert keyed == []
    for array in first:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    for _ in range(2):
        for request in ((s, rows, 8, False), (summary, rows, 8)):
            assert np.array_equal(per_row(appearance_mod.stored_band(*request)),
                                  request[0](rows, 8))
    assert keyed == [(8, False), (8, True)]
    cache_size = appearance_mod.CACHE_SIZE
    for count in range(1, cache_size + 1):
        appearance_mod.stored_band(s, rows[:count], 8)
        assert appearance_mod._read.cache_info().currsize <= cache_size
    keyed.clear()
    evicted = appearance_mod.stored_band(s, rows, 8)
    assert keyed == [(8, True)] and evicted[0] is not first[0]
    assert all(np.array_equal(*pair) for pair in zip(evicted, first))
    appearance_mod.clear_caches()


def test_band_store_reads_the_signs_of_any_int8_view(monkeypatch):
    # a strided view, or one wider than the m + 3 key bits, reads what its
    # contiguous copy reads, from that copy's cache entry; rows that are
    # not a 2-D int8 array are refused, never read as other signs
    appearance_mod.clear_caches()
    s = _batch.band_first_starts
    grid = appearance_mod.sign_grid(8)
    for view in (grid[::2], grid[:, :7], grid[::-3, 1:]):
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous
        band = appearance_mod.stored_band(s, copy, 8)
        assert np.array_equal(per_row(band), s(copy, 8))
        monkeypatch.setattr(appearance_mod, "_band_keys", None)  # no keying
        again = appearance_mod.stored_band(s, view, 8)
        assert again[0] is band[0] and again[1] is band[1]
        monkeypatch.undo()
    for rows in (grid.astype(np.int64), grid[0], grid[None]):
        with pytest.raises(ValueError, match="2-D int8"):
            appearance_mod.stored_band(s, rows, 8)
    appearance_mod.clear_caches()


@pytest.mark.parametrize("kernel, chunk_name", BAND_KERNELS)
@pytest.mark.parametrize("n", [7, 9, 33])
def test_grid_band_prefixes_come_in_twins(monkeypatch, kernel, chunk_name, n):
    # scan_depth(n) is one instruction bit above those the band prefix
    # reads, so the rows come in twins with byte-identical prefixes, and
    # the grid holds every pattern with its negation: the kernel sees a
    # quarter of the rows, and every row reads what a scan of each
    # distinct prefix on its own, with no negation map, gives it
    depth, rows = verification._grid(n)
    p = phi(n)
    one_row = {"_chunk_first_starts": _batch._chunk_first_starts,
               "_chunk_target_lcp": _batch._chunk_target_summary}[chunk_name]
    apart = _batch._by_chunks(rows, p, kernel(rows[:1], p).shape[1], one_row)
    seen = []
    real_chunk = getattr(_batch, chunk_name)
    monkeypatch.setattr(_batch, chunk_name,
                        lambda bits, p, ws: seen.append(len(bits)) or real_chunk(bits, p, ws))
    per_key, inverse = cold_band(kernel, rows, p)
    assert sum(seen) == len(per_key) == 1 << (depth - 2)
    assert len(inverse) == len(rows) == 1 << depth
    assert np.array_equal(per_row((per_key, inverse)), apart)


@pytest.mark.parametrize("kernel, chunk_name", BAND_KERNELS)
@pytest.mark.parametrize("p", [1, 64])
def test_band_kernels_refuse_too_few_instruction_columns(monkeypatch, kernel, chunk_name, p):
    # the band prefix of 7p - 1 signs reads f_0..f_(m+2), p = 2^m: rows of
    # m + 3 columns are scanned, and rows of one column fewer are refused
    # before any kernel call, by the kernel and by the band store
    length = 7 * p - 1
    grid = _batch.sign_grid(length.bit_length())
    assert len(kernel(grid, p)) == len(grid)
    calls = []
    monkeypatch.setattr(_batch, chunk_name, lambda bits, p, ws: calls.append(len(bits)))
    for call in (kernel, lambda rows, p: cold_band(kernel, rows, p)):
        with pytest.raises(ValueError, match=f"^{length.bit_length() - 1} instruction columns "
                                             f"cannot cover positions up to {length}$"):
            call(grid[:, :-1], p)
    assert calls == []


class PoisonedWorkspace(_batch._Workspace):
    """A band call's workspace that fills every array it hands out with
    fresh junk bytes: a kernel that reads an entry before it writes it in
    the same chunk reads junk, not what an earlier chunk or a fresh page
    left there.  Its arange is not an array it hands out, and stays."""

    def __init__(self):
        super().__init__()
        self._junk = np.random.default_rng(27)

    def __call__(self, name, dtype, *shape):
        array = super().__call__(name, dtype, *shape)
        raw = array.view(np.uint8)
        raw[...] = self._junk.integers(0, 256, raw.shape, dtype=np.uint8)
        return array


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_band_kernels_write_every_workspace_entry_they_read(monkeypatch, p):
    # Eight byte rows in chunks of three, so the last chunk is shorter and
    # every chunk gets arrays full of junk: a row with a cut copy of its
    # target window, a row whose sorted windows all share more than p/2
    # signs (chains to its row's end), a periodic row with flipped signs,
    # a constant row, random rows up to five negation pairs, and the
    # negation of the first three.  Then the kernels' own chunks, on five
    # instruction rows in distinct negation pairs and the negations of
    # three (scanned once), in chunks of two.
    length = 7 * p - 1
    rng = random.Random(p)
    copied = bytearray(rng.choice(b"+-") for _ in range(length))
    at, cut = rng.randrange(6 * p - 1), rng.randrange(p + 1)
    copied[at:at + p] = copied[6 * p - 1:]
    if cut < p:
        copied[at + cut] = ord("+") if copied[at + cut] == ord("-") else ord("-")
    periodic = bytearray((b"+--+-" * length)[:length])
    for j in rng.sample(range(length), min(length, 3)):
        periodic[j] = ord("+") if periodic[j] == ord("-") else ord("-")
    rows = []
    for row in itertools.chain([bytes(copied), long_chain_rows(p, 1, seed=p)[-1],
                                bytes(periodic), b"-" * length],
                               iter(lambda: bytes(rng.choice(b"+-") for _ in range(length)), None)):
        if negation_pairs(rows + [row]) > len(rows):
            rows.append(row)
        if len(rows) == 5:
            break
    rows += [negated(row) for row in rows[:3]]
    chunks = {"_chunk_first_starts": [], "_chunk_target_lcp": []}
    for name, seen in chunks.items():
        real = getattr(_batch, name)
        monkeypatch.setattr(_batch, name, lambda bits, p, ws, real=real, seen=seen:
                            seen.append(len(bits)) or real(bits, p, ws))
    monkeypatch.setattr(_batch, "_Workspace", PoisonedWorkspace)
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 3 * length)
    band = band_of_bytes(rows, p)
    summary = summary_of_bytes(rows, p)
    assert chunks == dict.fromkeys(chunks, [3, 3, 2])
    assert band.tolist() == [scalar_band(row, p) for row in rows]
    want = summary_from_array(np.array([brute_target_lcp(row, p) for row in rows]), p)
    assert summary.tolist() == want.tolist()

    keyed = length.bit_length()
    heads = rng.sample(range(1 << (keyed - 1)), min(5, 1 << (keyed - 1)))
    signs = [[1] + [1 if (h >> t) & 1 else -1 for t in range(keyed - 1)] for h in heads]
    signs = [[-v for v in row] if i % 2 else row for i, row in enumerate(signs)]
    pf_rows, prefixes = pf_rows_and_prefixes(signs + [[-v for v in row] for row in signs[:3]],
                                             length)
    for seen in chunks.values():
        seen.clear()
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * length)
    band = per_row(cold_band(_batch.band_first_starts, pf_rows, p))
    summary = per_row(cold_band(_batch.target_summary, pf_rows, p))
    pairs, odd = divmod(len(heads), 2)
    assert chunks == dict.fromkeys(chunks, [2] * pairs + [1] * odd)
    assert band.tolist() == [scalar_band(pb, p) for pb in prefixes]
    want = summary_from_array(np.array([brute_target_lcp(pb, p) for pb in prefixes]), p)
    assert summary.tolist() == want.tolist()


# A band of 12 chunks at p = 128 and one of a single chunk, each read after
# a warm-up call in a fresh interpreter, whose heap is not shaped by the
# tests run before.  The rows are instruction rows in no negation pair,
# each a kernel row of its own: the long repeated factors of their
# prefixes keep many chains walking, as in the sampled suites.
CHUNK_FAULTS = """
import resource, sys
from foldscope import _batch
p, length = 128, 7 * 128 - 1
per_chunk = _batch.CHUNK_ELEMENTS // length
grid = _batch.sign_grid(10)
rows = grid[grid[:, 0] > 0][:12 * per_chunk]

def faults(batch):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _batch.band_first_starts(batch, p)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
_batch.band_first_starts(rows, p)
print(faults(rows[:per_chunk]), faults(rows))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the minor page faults Linux counts in ru_minflt")
def test_band_kernel_chunks_fill_the_pages_of_the_first():
    # The chunks of one call fill one workspace, so the 11 extra chunks
    # add about no page faults: 0 to 49 in all on a 2-core Xeon with glibc
    # 2.36.  Chunks that each freed their arrays took about 290 a chunk
    # there, 3,163 to 3,231 in all, since glibc trimmed the heap top
    # between them.
    src = os.path.dirname(os.path.dirname(_batch.__file__))
    done = subprocess.run([sys.executable, "-c", CHUNK_FAULTS], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    one, many = map(int, done.stdout.split())
    assert many - one < 250, (one, many)


def test_bit_length_is_exact_near_two_to_the_64():
    x = np.array([0, 1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**53 + 1, 2**63 - 1, 2**63,
                  2**64 - 1], dtype=np.uint64)
    want = [int(v).bit_length() for v in x.tolist()]
    assert _batch._bit_length(x).tolist() == want
    # and for every narrower code type, up to its top value
    for t in (np.uint8, np.uint16, np.uint32):
        top = int(np.iinfo(t).max)
        x = np.array([0, 1, top // 2, top // 2 + 1, top - 1, top], dtype=t)
        assert _batch._bit_length(x).tolist() == [int(v).bit_length() for v in x.tolist()], t


def doubled_codes(bits, w):
    """Each window's w signs packed MSB first by shift-doubling, in uint64:
    the code of 2L signs at i is the code of L at i shifted by L, or'ed with
    the code of L at i + L, and one more sign is shifted in for each one
    bit of w."""
    one = bits.astype(np.uint64)
    codes, length = one, 1
    for bit in bin(w)[3:]:
        codes = (codes[:, :-length] << np.uint64(length)) | codes[:, length:]
        length *= 2
        if bit == "1":
            codes = (codes[:, :-1] << np.uint64(1)) | one[:, length:]
            length += 1
    return codes


def test_window_codes_equal_exactly_when_windows_are():
    # 0^64 1^64 0^63 1 0^64: equal windows of every width, and windows
    # that first differ at their last sign; then a seeded tail
    rng = random.Random(0)
    row = [0] * 64 + [1] * 64 + [0] * 63 + [1] + [0] * 64
    row += [rng.randrange(2) for _ in range(64)]
    bits = np.array([row], dtype=np.uint8)
    for w in range(1, 65):
        codes = _batch._window_codes(bits, w, _batch._Workspace())
        windows = np.lib.stride_tricks.sliding_window_view(bits[0], w)
        assert codes.shape == (1, len(windows)), w
        assert np.array_equal(codes, doubled_codes(bits, w)), w
        _, window_ids = np.unique(windows, axis=0, return_inverse=True)
        assert (np.unique(codes[0], return_inverse=True)[1].ravel()
                == window_ids.ravel()).all(), w
        # and they sort as the windows do, sign 0 first
        assert (np.argsort(codes[0], kind="stable")
                == np.lexsort(windows.T[::-1])).all(), w
    # every width the kernels use, on one row and on several, at lengths
    # from too short for 8 windows of 64 signs (64..70) to band rows
    gen = np.random.default_rng(7)
    for w in (2, 4, 8, 16, 32, 64):
        for length in sorted({w, w + 1, 64, 65, 70, 71, 72, 100, 7 * w - 1}):
            if length < w:
                continue
            for r in (1, 3):
                bits = gen.integers(0, 2, (r, length), dtype=np.uint8)
                codes = _batch._window_codes(bits, w, _batch._Workspace())
                assert codes.flags.c_contiguous, (w, length, r)
                assert np.array_equal(codes, doubled_codes(bits, w)), (w, length, r)
    # the chunks of both band kernels at p = 32, 64, 128 and 2048, through
    # one workspace as a band call hands them out: full chunks, then a
    # shorter last one, then a single row
    for p in (32, 64, 128, 2048):
        step, w = max(1, _batch.CHUNK_ELEMENTS // (7 * p - 1)), min(p, 64)
        for kernel_chunk in (_batch._chunk_first_starts, _batch._chunk_target_lcp):
            ws = _batch._Workspace()
            for r in sorted({step, max(1, step // 3), 1}, reverse=True):
                bits = gen.integers(0, 2, (r, 7 * p - 1), dtype=np.uint8)
                codes = _batch._window_codes(bits, w, ws)
                assert codes.shape == (r, 7 * p - w) and codes.flags.c_contiguous, (p, r)
                assert np.array_equal(codes, doubled_codes(bits, w)), (p, r)
                kernel_chunk(bits, p, ws)


def test_grid_s_values_width_check():
    with pytest.raises(ValueError):
        appearance_mod.grid_s_values(9, 4)  # 4 bits cannot cover the scan


# --- the residue lemma (appearance module docstring) -----------------------

def factor_count(n):
    """p(n), the number of length-n factors of every paper-folding sequence."""
    return (2, 4, 8, 12, 18, 23)[n - 1] if n < 7 else 4 * n


def residue_set(f, n):
    """The windows at starts 1..2*phi(n), each also taken with the sign at
    its deep position (the multiple of phi(n) it covers, if any) flipped."""
    p = phi(n)
    prefix = pf_prefix(f, 3 * p - 1).to_text()
    out = set()
    for c in range(1, 2 * p + 1):
        window = prefix[c - 1:c - 1 + n]
        out.add(window)
        deep = [d - c for d in range(c, c + n) if d % p == 0]
        for i in deep:
            out.add(window[:i] + "+-"[window[i] == "+"] + window[i + 1:])
    return out


def check_factor_set_is_residue_set(f, n):
    factors = {w.to_text() for w in distinct_factors(f, n)}
    assert factors == residue_set(f, n)
    assert len(factors) == appearance_report(f, n).factor_count == factor_count(n)


def test_factor_set_is_the_residue_set_on_every_grid_pattern():
    for n in range(1, 17):
        depth = scan_depth(n)
        for i in range(1 << depth):
            bits = [1 if (i >> t) & 1 else -1 for t in range(depth)]
            check_factor_set_is_residue_set(make_instructions(bits), n)


@settings(max_examples=30, deadline=None)
@given(head=st.lists(signs, max_size=12), tail=st.lists(signs, min_size=1, max_size=6),
       n=st.integers(1, 512))
@example(head=[], tail=[1], n=512)
def test_factor_set_is_the_residue_set_for_random_f(head, tail, n):
    check_factor_set_is_residue_set(make_instructions(head, tail), n)


@settings(max_examples=30, deadline=None)
@given(head=st.lists(signs, max_size=12), tail=st.lists(signs, min_size=1, max_size=6),
       n=st.integers(1, 512))
@example(head=[], tail=[1, -1], n=257)
def test_no_factor_first_starts_past_six_phi(head, tail, n):
    # the scan to the old horizon 12*phi finds no first start past 6*phi,
    # and so the same factors, at the same first starts, as the scan to 6*phi
    p = phi(n)
    prefix = appearance_mod._prefix_bytes(make_instructions(head, tail), 13 * p - 1)
    wide = appearance_mod._scan_first_starts(prefix, n, 12 * p)
    assert max(wide.values()) <= 6 * p
    assert wide == appearance_mod._scan_first_starts(prefix, n, 6 * p)


def test_residue_set_check_catches_an_invented_factor(regular, monkeypatch):
    real_scan = appearance_mod._scan_first_starts

    def late_factor_scan(sign):
        def scan(prefix, n, limit):
            # a new factor turns up at the last start scanned
            firsts = real_scan(prefix, n, limit)
            firsts[sign * n] = limit
            return firsts
        return scan

    # "@" is no sign, so distinct_factors refuses the word; seven "+" are
    # signs but no factor of the regular fold, so the sets differ
    for sign, length, error in ((b"@", 2, ValueError), (b"+", 7, AssertionError)):
        monkeypatch.setattr(appearance_mod, "_scan_first_starts", late_factor_scan(sign))
        with pytest.raises(error):
            check_factor_set_is_residue_set(regular, length)


# --- scan edge paths (reachable only through a patched scanner) -------------


def test_tied_latest_factors_is_an_error(regular, monkeypatch):
    def tying_scan(prefix, n, limit):
        return {b"+" * n: 10, b"-" * n: 10}

    monkeypatch.setattr(appearance_mod, "_scan_first_starts", tying_scan)
    for n in (2, 7):  # a tie is a corrupted scan below length 7 as well
        with pytest.raises(appearance_mod.AmbiguousLastFactor):
            appearance_report(regular, n)

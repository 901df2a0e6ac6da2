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
    distinct = negation_pairs(rows)
    chunks = []
    real_chunk = _batch._chunk_first_starts
    with pytest.MonkeyPatch.context() as mp:
        # the kernel sees one row per negation pair: one such row more than
        # a chunk holds, so the last chunk is a partial one
        mp.setattr(_batch, "CHUNK_ELEMENTS", (distinct - 1) * length)
        mp.setattr(_batch, "_chunk_first_starts",
                   lambda bits, p, ws: chunks.append(len(bits)) or real_chunk(bits, p, ws))
        band = _batch.band_first_starts(rows, p)
    assert chunks == [distinct - 1, 1]
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


@pytest.mark.parametrize("p", [128, 256])
def test_band_kernel_sorts_and_compares_blocks_past_the_first(p):
    # 64 fixed signs and a 16-sign tag, eight times a period; the tags are
    # in turn a count in binary and one fixed word.  The windows at the
    # fixed signs share their first 64-sign block and differ in a later
    # one, and past a differing tag their blocks can agree again.  The rows
    # start at every 16th sign of the first two units.
    head = "+-" * 16 + "+" * 16 + "-" * 16
    period = "".join(head + format(k, "016b") + head + "1" * 8 + "0" * 8
                     for k in range(4)).translate(str.maketrans("01", "-+"))
    word = period * (7 * p // len(period) + 2)
    rows = [word[r:r + 7 * p - 1].encode() for r in range(0, 160, 16)]
    for row in rows:
        windows = sorted(range(6 * p), key=lambda i: row[i:i + p])
        lcps = [len(os.path.commonprefix([row[i:i + p], row[j:j + p]]))
                for i, j in zip(windows, windows[1:])]
        assert any(64 <= lcp < p for lcp in lcps)
    band = _batch.band_first_starts(rows, p)
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
    band = _batch.band_first_starts(rows, p)
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
    # negation pairs, which the kernel scans once each.
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
    band = _batch.band_first_starts(rows, p)
    assert chunks == [negation_pairs(rows)]
    assert band.tolist() == [scalar_band(row, p) for row in rows]


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
        # two rows per chunk, the last one partial for an odd count; at
        # p = 1 rows can share their first 6 signs, and the kernel sees
        # each band prefix once per negation pair, in first-seen order
        mp.setattr(_batch, "CHUNK_ELEMENTS", 2 * (7 * p - 1))
        mp.setattr(_batch, "_chunk_target_lcp", recording)
        _batch.target_summary(rows, p)
    first_seen = {}
    for row in rows:
        band_prefix = row[:7 * p - 1]
        first_seen.setdefault(frozenset((band_prefix, negated(band_prefix))), band_prefix)
    pairs, odd = divmod(len(first_seen), 2)
    assert [len(lcp) for lcp in seen] == [2] * pairs + [1] * odd
    got = np.concatenate(seen)
    assert got.shape == (len(first_seen), 6 * p)
    # whichever member of a pair the kernel scanned, its LCPs are those
    # the byte comparison gives the first-seen one
    for row, lcp in zip(first_seen.values(), got):
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
    # signs are equal, so that rows where no start reaches n occur too;
    # that set of rows is closed under negation, so the kernel, which
    # scans one row per negation pair, blinds the rows the reference does
    real_chunk = _batch._chunk_target_lcp

    def half_blind(bits, p, ws):
        lcp = real_chunk(bits, p, ws)
        lcp[bits[:, 0] == bits[:, 1], 6 * p - 1] = 0
        return lcp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_batch, "_chunk_target_lcp", half_blind)
        mp.setattr(_batch, "CHUNK_ELEMENTS", per_chunk * length)
        got = _batch.target_summary(rows, p)
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
    length = 7 * p - 1
    rng = random.Random(p)
    distinct = [bytes(rng.choice(b"+-") for _ in range(length)) for _ in range(5)]
    # repeats, some with a different tail past the band prefix, shuffled
    rows = [pb + bytes(rng.choice(b"+-") for _ in range(rng.randrange(3)))
            for pb in distinct * 3 + distinct[:2]]
    rng.shuffle(rows)
    alone = np.concatenate([kernel((row,), p) for row in rows])
    seen = []
    real_chunk = getattr(_batch, chunk_name)
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * length)
    monkeypatch.setattr(_batch, chunk_name,
                        lambda bits, p, ws: seen.append(len(bits)) or real_chunk(bits, p, ws))
    got = kernel(tuple(rows), p)
    assert seen == [2, 2, 1]
    assert got.dtype == alone.dtype and np.array_equal(got, alone)
    # a fresh array: a twin of row 0 keeps its own values
    twin = next(i for i in range(1, len(rows)) if rows[i][:length] == rows[0][:length])
    got[0] += 1
    assert np.array_equal(got[twin], alone[twin])


@pytest.mark.parametrize("p", [1, 4, 64, 128])
def test_band_kernels_scan_a_prefix_and_its_negation_once(monkeypatch, p):
    # Rows with a copy of the target window (0-based 6p - 1 on) at a start
    # below 5p: two with their negation in the batch and two without, one
    # of each first sign, and a row with its twin that differs only in
    # the last sign of the band prefix.  A key that merges rows which are
    # not negations of each other (the twins, or every row starting with
    # '-') hands some row another row's values.
    length = 7 * p - 1
    rng = random.Random(p)
    drawn = set()

    def copied_target(first):
        """A new row, in no negation pair drawn before."""
        while True:
            pb = bytearray(rng.choice(b"+-") for _ in range(length))
            to = rng.randrange(5 * p)
            pb[to:to + p] = pb[6 * p - 1:]
            pb[0] = first
            pb = bytes(pb)
            if drawn.isdisjoint((pb, negated(pb))):
                drawn.update((pb, negated(pb)))
                return pb
    twin = copied_target(ord("-"))
    last_flipped = twin[:-1] + negated(twin[-1:])
    drawn.update((last_flipped, negated(last_flipped)))
    paired = [copied_target(ord("+")), copied_target(ord("-"))]
    alone = [copied_target(ord("+")), copied_target(ord("-"))]
    rows = (paired + alone + [twin, negated(paired[1]), last_flipped, negated(paired[0])]
            + [pb + b"+-" for pb in paired])
    # reference values from the scalar scan and the byte comparison alone
    want_band = [scalar_band(row, p) for row in rows]
    want_summary = summary_from_array(
        np.array([brute_target_lcp(row, p) for row in rows]), p).tolist()
    # each fault shows: the twins differ, and so do rows starting with '-'
    assert want_summary[4] != want_summary[6]
    assert len({str((want_band[i], want_summary[i])) for i in (1, 3, 4, 6)}) > 1
    seen = {"_chunk_first_starts": 0, "_chunk_target_lcp": 0}

    def counting(name):
        real = getattr(_batch, name)

        def kernel(bits, p, ws):
            seen[name] += len(bits)
            return real(bits, p, ws)
        return kernel
    for name in seen:
        monkeypatch.setattr(_batch, name, counting(name))
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * length)
    assert _batch.band_first_starts(rows, p).tolist() == want_band
    assert _batch.target_summary(rows, p).tolist() == want_summary
    assert seen == dict.fromkeys(seen, negation_pairs([row[:length] for row in rows])) \
        == dict.fromkeys(seen, 6)


@pytest.mark.parametrize("kernel, chunk_name", BAND_KERNELS)
@pytest.mark.parametrize("n", [7, 9, 33])
def test_grid_band_prefixes_come_in_twins(monkeypatch, kernel, chunk_name, n):
    # scan_depth(n) is one instruction bit above those the band prefix
    # reads, so the prefixes come in byte-identical twins, and the grid
    # holds every pattern with its negation: the kernel sees a quarter of
    # the rows, and every row reads what a scan of each distinct prefix
    # on its own, with no negation map, gives it
    depth, _, prefixes = verification._grid(n)
    p = phi(n)
    one_row = {"_chunk_first_starts": _batch._chunk_first_starts,
               "_chunk_target_lcp": _batch._chunk_target_summary}[chunk_name]
    columns = kernel(prefixes[:1], p).shape[1]
    apart = _batch._by_chunks(prefixes, 7 * p - 1, columns,
                              lambda bits, ws: one_row(bits, p, ws), by_negation=False)
    seen = []
    real_chunk = getattr(_batch, chunk_name)
    monkeypatch.setattr(_batch, chunk_name,
                        lambda bits, p, ws: seen.append(len(bits)) or real_chunk(bits, p, ws))
    got = kernel(prefixes, p)
    assert sum(seen) == 1 << (depth - 2)
    assert len(got) == len(prefixes) == 1 << depth
    assert np.array_equal(got, apart)


@pytest.mark.parametrize("kernel", [_batch.band_first_starts,
                                    pytest.param(_batch.target_summary, id="target_lcp")])
@pytest.mark.parametrize("p", [1, 64])
def test_band_kernels_refuse_a_short_last_prefix(kernel, p):
    length = 7 * p - 1
    rows = (b"+" * (length + 1), b"-" * length, b"+-" * length, b"-" * (length - 1))
    with pytest.raises(ValueError,
                       match=f"need prefixes of {length} signs, the shortest has {length - 1}"):
        kernel(rows, p)


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
    # Five negation pairs in chunks of two, so the last chunk is shorter
    # and every chunk gets arrays full of junk: a row with a cut copy of
    # its target window, a row whose sorted windows all share more than
    # p/2 signs (chains to its row's end), a periodic row with flipped
    # signs, a constant row, random rows up to five pairs, and the
    # negation of the first three (scanned once).
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
    monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 2 * length)
    band = _batch.band_first_starts(rows, p)
    summary = _batch.target_summary(rows, p)
    assert chunks == dict.fromkeys(chunks, [2, 2, 1])
    assert band.tolist() == [scalar_band(row, p) for row in rows]
    want = summary_from_array(np.array([brute_target_lcp(row, p) for row in rows]), p)
    assert summary.tolist() == want.tolist()


# A band of 12 chunks at p = 128 and one of a single chunk, each read after
# a warm-up call in a fresh interpreter, whose heap is not shaped by the
# tests run before.  The rows are paper-folding prefixes in no negation
# pair: their long repeated factors keep many chains walking, as in the
# sampled suites.
CHUNK_FAULTS = """
import resource, sys
from foldscope import _batch
p, length = 128, 7 * 128 - 1
per_chunk = _batch.CHUNK_ELEMENTS // length
grid = _batch.sign_grid(10)
rows = _batch.prefix_rows(grid[grid[:, 0] > 0][:12 * per_chunk], length)

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
        _, window_ids = np.unique(windows, axis=0, return_inverse=True)
        assert (np.unique(codes[0], return_inverse=True)[1].ravel()
                == window_ids.ravel()).all(), w
        # and they sort as the windows do, sign 0 first
        assert (np.argsort(codes[0], kind="stable")
                == np.lexsort(windows.T[::-1])).all(), w


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

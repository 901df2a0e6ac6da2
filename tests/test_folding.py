import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from foldscope import (FoldingInstructions, InstructionExhausted, SignWord,
                       format_instructions, instruction, make_instructions,
                       negate, parse_instructions, pf_prefix, pf_value,
                       required_instruction_count)
from foldscope.folding import pf_prefix_bytes
from foldscope import _batch
from foldscope.appearance import _prefix_bytes

signs = st.sampled_from((-1, 1))
sign_lists = st.lists(signs, min_size=1, max_size=12)


def finite(bits):
    return make_instructions(bits)


# --- construction -----------------------------------------------------------

def test_make_instructions_regular(regular):
    assert regular.prefix == (1,)
    assert regular.tail_period == (1,)
    assert instruction(regular, 1000) == 1


def test_make_instructions_finite():
    f = make_instructions([1, -1])
    assert f.is_finite
    assert (instruction(f, 0), instruction(f, 1)) == (1, -1)


def test_make_instructions_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        make_instructions([1], [0])
    with pytest.raises(ValueError):
        make_instructions([2])


def test_make_instructions_rejects_empty_tail():
    with pytest.raises(ValueError):
        make_instructions([1], [])


# --- instruction access -----------------------------------------------------

def test_instruction_regular_tail(regular):
    assert instruction(regular, 5) == 1


def test_instruction_period_arithmetic():
    f = make_instructions([1, -1], [1, -1])
    assert instruction(f, 3) == -1
    assert instruction(f, 4) == 1


def test_instruction_exhaustion():
    f = make_instructions([1, -1])
    with pytest.raises(InstructionExhausted) as err:
        instruction(f, 2)
    assert "f_2" in str(err.value)


def test_instruction_negative_index(regular):
    with pytest.raises(ValueError):
        instruction(regular, -1)


# --- sequence values --------------------------------------------------------

def test_pf_value_regular_k6(regular):
    assert pf_value(regular, 6) == -1


def test_pf_value_regular_first_eight(regular):
    assert [pf_value(regular, k) for k in range(1, 9)] == [1, 1, -1, 1, 1, -1, -1, 1]


def test_pf_value_negated_regular(regular):
    assert pf_value(negate(regular), 3) == 1


def test_pf_value_rejects_zero(regular):
    with pytest.raises(ValueError):
        pf_value(regular, 0)


def test_pf_prefix_regular(regular):
    assert pf_prefix(regular, 8).values == (1, 1, -1, 1, 1, -1, -1, 1)


def test_pf_prefix_length_one():
    for f in (make_instructions([1]), make_instructions([-1])):
        assert pf_prefix(f, 1).values == (f.prefix[0],)


def test_pf_prefix_alternating_instructions():
    # f = (+1, -1, +1, -1, ...); expected values computed position by
    # position from the closed formula
    f = make_instructions([], [1, -1])
    assert pf_prefix(f, 8).values == (1, -1, -1, 1, 1, 1, -1, -1)


def test_pf_prefix_exhaustion_names_first_missing():
    f = make_instructions([1, -1])
    with pytest.raises(InstructionExhausted) as err:
        pf_prefix(f, 8)
    assert "f_2" in str(err.value)


def test_required_instruction_count():
    assert required_instruction_count(8) == 4
    assert required_instruction_count(1) == 1
    assert required_instruction_count(48) == 6
    with pytest.raises(ValueError):
        required_instruction_count(0)


# --- negation ---------------------------------------------------------------

def test_negate_regular(regular):
    neg = negate(regular)
    assert neg.prefix == (-1,) and neg.tail_period == (-1,)


def test_negate_involution(alt_tail):
    assert negate(negate(alt_tail)) == alt_tail


def test_negate_prefix():
    assert negate(make_instructions([1, -1])).prefix == (-1, 1)


def test_negation_antisymmetry_full_range(regular, alt_tail):
    for f in (regular, alt_tail):
        neg = negate(f)
        w = pf_prefix(f, 1 << 16).values
        wn = pf_prefix(neg, 1 << 16).values
        assert all(a == -b for a, b in zip(w, wn))


# --- SignWord ---------------------------------------------------------------

def test_signword_one_based_access():
    w = SignWord((1, -1, 1))
    assert w.at(1) == 1 and w.at(3) == 1
    assert w.slice(2, 3).values == (-1, 1)
    assert len(w) == 3


def test_signword_bad_access():
    w = SignWord((1, -1))
    with pytest.raises(IndexError):
        w.at(0)
    with pytest.raises(IndexError):
        w.at(3)
    with pytest.raises(IndexError):
        w.slice(2, 1)
    with pytest.raises(IndexError):
        w.slice(1, 3)


def test_signword_rendering():
    w = SignWord((1, -1, -1, 1))
    assert w.to_text() == "+--+"
    assert w.to_oeis() == "1001"
    assert SignWord.from_text("+--+") == w
    with pytest.raises(ValueError):
        SignWord.from_text("+0")
    # each refusal names the first bad entry, whichever path finds it
    for text, bad in (("+-x-y", "'x'"), ("+é", "'é'")):
        with pytest.raises(ValueError, match=f"^bad sign character {bad} in word$"):
            SignWord.from_text(text)
    with pytest.raises(ValueError, match=r"^word entry 0 is not -1 or \+1$"):
        SignWord((1, 0, 2))
    with pytest.raises(ValueError, match=r"^word entry \[1\] is not -1 or \+1$"):
        SignWord((1, [1]))
    with pytest.raises(ValueError, match=r"^tail_period entry 2 is not -1 or \+1$"):
        make_instructions([1], [2])


@given(values=st.lists(signs, max_size=300).map(tuple))
def test_signword_text_round_trip(values):
    w = SignWord(values)
    text = "".join("+" if v == 1 else "-" for v in values)
    assert w.to_text() == text
    assert w.to_oeis() == "".join("1" if v == 1 else "0" for v in values)
    parsed = SignWord.from_text(w.to_text())
    assert parsed == w and hash(parsed) == hash(w) and repr(parsed) == repr(w)
    assert parsed.values == values and type(parsed.values) is tuple
    assert parsed.to_text() == text and parsed.to_oeis() == w.to_oeis()


@given(head=st.lists(signs, max_size=6), tail=sign_lists,
       length=st.integers(min_value=1, max_value=1 << 14))
def test_pf_prefix_text_is_the_byte_prefix(head, tail, length):
    f = FoldingInstructions(tuple(head), tuple(tail))
    assert pf_prefix(f, length).to_text() == pf_prefix_bytes(f, length).decode()


# --- instruction syntax -----------------------------------------------------

def test_parse_examples():
    assert parse_instructions("+;+") == make_instructions([1], [1])
    assert parse_instructions("++-;+-") == make_instructions([1, 1, -1], [1, -1])
    assert parse_instructions("+-+-") == make_instructions([1, -1, 1, -1])
    assert parse_instructions(";+-") == make_instructions([], [1, -1])


@pytest.mark.parametrize("bad", ["", ";", "+;", "+;+;+", "+x", "+ -"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_instructions(bad)


@given(prefix=st.lists(signs, max_size=8),
       tail=st.one_of(st.none(), sign_lists))
def test_parse_format_round_trip(prefix, tail):
    if not prefix and tail is None:
        return
    f = make_instructions(prefix, tail)
    assert parse_instructions(format_instructions(f)) == f


# --- formula properties -----------------------------------------------------

@given(bits=st.lists(signs, min_size=1, max_size=12),
       k=st.integers(min_value=1, max_value=4000))
def test_negation_antisymmetry(bits, k):
    f = FoldingInstructions(tuple(bits), tuple(bits))
    assert pf_value(negate(f), k) == -pf_value(f, k)


@given(head=st.lists(signs, max_size=14), tail=sign_lists,
       finite_set=st.booleans(), length=st.integers(min_value=1, max_value=1 << 12))
def test_prefix_matches_pointwise(head, tail, finite_set, length):
    # every generator agrees with pf_value at every position
    assume(head != tail)
    f = FoldingInstructions(tuple(head), None if finite_set else tuple(tail))
    if finite_set and length.bit_length() > len(head):
        for generate in (pf_prefix, _prefix_bytes):
            with pytest.raises(InstructionExhausted):
                generate(f, length)
        return
    expected = [pf_value(f, k) for k in range(1, length + 1)]
    text = "".join("+" if v == 1 else "-" for v in expected).encode()
    assert list(pf_prefix(f, length).values) == expected
    assert _prefix_bytes(f, length) == text
    columns = [instruction(f, s) for s in range(length.bit_length())]
    rows = np.array([columns, [-v for v in columns]], dtype=np.int8)
    matrix = _batch.pf_prefix_matrix(rows, length)
    assert matrix.shape == (2, length)
    assert bytes(matrix[0]) == text
    assert bytes(matrix[1]) == text.translate(bytes.maketrans(b"+-", b"-+"))


def test_generator_is_the_unfolding_recursion():
    # w_0 = f_0, w_(j+1) = w_j, f_(j+1), -reverse(w_j) (the folding
    # docstring) on every pattern of f_0..f_11, over 4,095 positions
    rows = _batch.sign_grid(12)
    w = rows[:, :1]
    for j in range(11):
        w = np.concatenate((w, rows[:, j + 1:j + 2], -w[:, ::-1]), axis=1)
    assert w.shape == (1 << 12, 4095)
    assert np.array_equal(_batch.pf_prefix_matrix(rows, 4095) == ord("+"), w > 0)


def test_sign_grid_rows_are_the_periodic_sets():
    # row i of the cyclic grid is the purely periodic set with period
    # bits_i (f_t = +1 iff bit t of i is set), the set a monotonicity
    # counterexample names, and its byte row is that set's prefix
    for depth in range(1, 7):
        assert _batch.sign_grid(depth).shape == (1 << depth, depth)
        for width in (depth, depth + 1, 2 * depth + 3):
            grid = _batch.sign_grid(depth, width)
            assert grid.shape == (1 << depth, width)
            length = min((1 << width) - 1, 700)
            prefixes = _batch.pf_prefix_matrix(grid, length)
            assert len(prefixes) == 1 << depth
            for i, row in enumerate(grid.tolist()):
                f = FoldingInstructions((), tuple(1 if (i >> t) & 1 else -1
                                                  for t in range(depth)))
                assert row == [instruction(f, t) for t in range(width)]
                assert prefixes[i].tobytes() == _prefix_bytes(f, length)


@given(bits=st.lists(signs, min_size=8, max_size=8),
       k=st.integers(min_value=1, max_value=255),
       flip=st.integers(min_value=0, max_value=7))
def test_only_the_dividing_bit_matters(bits, k, flip):
    s = (k & -k).bit_length() - 1
    f = finite(bits)
    flipped = finite([-v if t == flip else v for t, v in enumerate(bits)])
    if flip == s:
        assert pf_value(flipped, k) == -pf_value(f, k)
    else:
        assert pf_value(flipped, k) == pf_value(f, k)


@given(k=st.integers(min_value=0, max_value=2000))
def test_odd_positions_depend_on_f0_only(k):
    k = 2 * k + 1
    f_a = make_instructions([1, 1, 1, 1], [1])
    f_b = make_instructions([1, -1, -1, -1], [-1])
    assert pf_value(f_a, k) == pf_value(f_b, k)

import pytest
from hypothesis import given, settings, strategies as st

from foldscope import (ALPHABET, OutputUndefined, ParallelDFAO, TrackedInput,
                       build_pf_evaluator, export_dot, export_table,
                       lsd2_digits, make_instructions, parse_table, pf_value,
                       run_dfao, tracked_input, unreachable_states)
from foldscope import _batch

signs = st.sampled_from((-1, 1))


def one_state_dfao():
    tr = {(0, sym): 0 for sym in ALPHABET}
    return ParallelDFAO(1, 0, tr, (1,))


# --- construction and shape -------------------------------------------------

def test_evaluator_has_five_reachable_states(evaluator):
    assert evaluator.state_count == 5
    assert unreachable_states(evaluator) == []


def test_evaluator_outputs_only_on_decided_states(evaluator):
    assert evaluator.output == (None, None, None, 1, -1)


def test_decided_states_are_absorbing(evaluator):
    for q in (3, 4):
        for sym in ALPHABET:
            assert evaluator.transitions[(q, sym)] == q


def test_dfao_validation():
    tr = {(0, sym): 0 for sym in ALPHABET}
    with pytest.raises(ValueError):
        ParallelDFAO(1, 1, tr, (1,))           # start out of range
    with pytest.raises(ValueError):
        ParallelDFAO(1, 0, tr, (2,))           # bad output value
    with pytest.raises(ValueError):
        ParallelDFAO(1, 0, dict(list(tr.items())[:3]), (1,))  # not total
    bad = dict(tr)
    bad[(0, (1, 1))] = 5
    with pytest.raises(ValueError):
        ParallelDFAO(1, 0, bad, (1,))          # target out of range


# --- digits -----------------------------------------------------------------

def test_lsd2_digits_examples():
    assert lsd2_digits(6, 4) == (0, 1, 1, 0)
    assert lsd2_digits(1, 1) == (1,)
    assert lsd2_digits(48, 6) == (0, 0, 0, 0, 1, 1)


def test_lsd2_digits_width_too_small():
    with pytest.raises(ValueError):
        lsd2_digits(6, 2)
    with pytest.raises(ValueError):
        lsd2_digits(0, 4)


def test_tracked_input_validation():
    with pytest.raises(ValueError):
        TrackedInput((0, 1), (1,))
    with pytest.raises(ValueError):
        TrackedInput((0, 2), (1, 1))
    with pytest.raises(ValueError):
        TrackedInput((0, 1), (1, 0))


# --- runs -------------------------------------------------------------------

def test_run_k6(evaluator, regular):
    inp = TrackedInput(lsd2_digits(6, 3), (1, 1, 1))
    assert run_dfao(evaluator, inp) == -1


def test_run_k1_width2(evaluator):
    inp = TrackedInput(lsd2_digits(1, 2), (1, 1))
    assert run_dfao(evaluator, inp) == 1


def test_run_k4_truncated_then_decided(evaluator):
    short = TrackedInput(lsd2_digits(4, 3), (1, 1, 1))
    with pytest.raises(OutputUndefined):
        run_dfao(evaluator, short)
    full = TrackedInput(lsd2_digits(4, 4), (1, 1, 1, 1))
    assert run_dfao(evaluator, full) == 1


def test_run_k5(evaluator):
    inp = TrackedInput((1, 0, 1, 0), (1, 1, 1, 1))
    assert run_dfao(evaluator, inp) == 1


def test_tracked_input_default_width_decides(evaluator, regular):
    for k in (1, 4, 6, 48, 256):
        assert run_dfao(evaluator, tracked_input(regular, k)) == pf_value(regular, k)


@settings(max_examples=60)
@given(bits=st.lists(signs, min_size=1, max_size=6),
       k=st.integers(min_value=1, max_value=512),
       pad=st.integers(min_value=0, max_value=6))
def test_padding_invariance(bits, k, pad):
    evaluator = build_pf_evaluator()
    f = make_instructions(bits, bits)
    base = tracked_input(f, k)
    value = run_dfao(evaluator, base)
    width = len(base.digits) + pad
    assert run_dfao(evaluator, tracked_input(f, k, width)) == value


def test_batch_runner_agrees_with_scalar(evaluator):
    rows = _batch.sign_grid(5, 8)
    cases, skipped, mismatch = _batch.compare_formula_vs_dfao(evaluator, rows, 127)
    assert mismatch is None and skipped == []
    # spot-check the same pairs through the scalar runner
    for j in (0, 7, 31):
        f = make_instructions([int(v) for v in rows[j]])
        for k in (1, 2, 31, 64, 127):
            inp = tracked_input(f, k, 8)
            assert run_dfao(evaluator, inp) == pf_value(f, k)


# --- exports ----------------------------------------------------------------

def test_dot_five_nodes(evaluator):
    dot = export_dot(evaluator)
    assert dot.count("shape=circle") + dot.count("shape=doublecircle") == 5
    assert export_dot(evaluator) == dot


def test_dot_single_state_self_loops():
    dot = export_dot(one_state_dfao())
    assert dot.count("0 -> 0") == 4


def test_table_five_state_lines(evaluator):
    table = export_table(evaluator)
    lines = [ln for ln in table.splitlines() if ln and ln[0].isdigit()]
    assert len(lines) == 5
    assert table.startswith("# dfao-v1\n")
    assert export_table(evaluator) == table


def test_table_round_trip(evaluator):
    parsed = parse_table(export_table(evaluator))
    assert parsed.state_count == evaluator.state_count
    assert parsed.start_state == evaluator.start_state
    assert parsed.output == evaluator.output
    assert dict(parsed.transitions) == dict(evaluator.transitions)


def test_table_round_trip_single_state():
    d = one_state_dfao()
    parsed = parse_table(export_table(d))
    assert parsed.output == d.output and dict(parsed.transitions) == dict(d.transitions)


def test_table_parse_error_names_line(evaluator):
    lines = export_table(evaluator).splitlines()
    lines[4] = lines[4].replace("->", "=>")
    with pytest.raises(ValueError) as err:
        parse_table("\n".join(lines))
    assert "line 5" in str(err.value)
    with pytest.raises(ValueError):
        parse_table("not a table")

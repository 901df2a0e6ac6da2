import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foldscope import (ALPHABET, OutputUndefined, ParallelDFAO, TrackedInput,
                       build_pf_evaluator, export_dot, export_table,
                       lsd2_digits, make_instructions, parse_table, pf_value,
                       replace_transition, run_dfao, tracked_input, unreachable_states)
from foldscope import _batch
from foldscope.verification import dfao_mutation_catalog

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


def _brute_force_sweep(machine, rows, k_max):
    """(cases, skipped, mismatch) of the batch sweep, one scalar run per
    (row, k): least k first, then least row."""
    m, w = rows.shape
    cases, skipped, mismatch = 0, [], None
    for k in range(1, k_max + 1):
        if k >> w or (k & -k).bit_length() + 1 > w:
            skipped.append(k)
            continue
        for j in range(m):
            f = make_instructions([int(v) for v in rows[j]])
            try:
                got = run_dfao(machine, tracked_input(f, k, w))
            except OutputUndefined:
                got = None
            cases += 1
            if mismatch is None and got != pf_value(f, k):
                mismatch = (j, k, pf_value(f, k), got)
    return cases, skipped, mismatch


def test_batch_runner_agrees_with_scalar(evaluator, monkeypatch):
    # Every row is decided chunk by chunk, and the chunks' least k are
    # merged in row order.  A budget of 25 cells (one row's codes in one
    # group of columns) per two rows puts half or a quarter of the rows in
    # a chunk, so every call splits its rows and a wrong merge shows: some
    # call first finds its least k in a later chunk, some finds it in two
    # chunks, where the earlier must win, and some in two rows of a chunk,
    # where the first must win.  The least k over the chunks is the
    # mismatch's, or past every k the sweep reads when there is none.
    # k = 32 is undecidable at k_max = 40, and k_max = 12 drops whole
    # bit-1 halves.  Widths 2, 3 and the odd 7 split the digits unevenly
    # between the low and the high pass, and k_max = 10 < 2^4 leaves the
    # width-7 high pass with only the zero digits.
    calls, least_k = [], _batch._least_k

    def spy(*args):
        found = least_k(*args)
        least = found.min()
        calls[-1].append((len(found), int(least), int((found == least).sum())))
        return found

    monkeypatch.setattr(_batch, "_least_k", spy)
    grids = (((2, 2), (3, 5)), ((3, 3), (7, 9)), ((3, 7), (10, 130)), ((4, 6), (12, 40)))
    machines = [evaluator] + [m for _, m in dfao_mutation_catalog(evaluator)]
    caught = later = tied = inner = 0
    for machine in machines:
        for shape, k_maxes in grids:
            rows = _batch.sign_grid(*shape)
            top = (1 << rows.shape[1]) - 1
            monkeypatch.setattr(_batch, "CHUNK_ELEMENTS", 25 * len(rows) // 2)
            for k_max in k_maxes:
                calls.append([])
                expected = _brute_force_sweep(machine, rows, k_max)
                assert _batch.compare_formula_vs_dfao(machine, rows, k_max) == expected
                sizes, ks, counts = zip(*calls[-1])
                assert sum(sizes) == len(rows) and len(sizes) > 1
                if expected[2] is None:
                    assert min(ks) > min(k_max, top)
                else:
                    assert min(ks) == expected[2][1]
                    later += ks.index(min(ks)) > 0
                    inner += counts[ks.index(min(ks))] > 1
                    tied += ks.count(min(ks)) > 1
        caught += expected[2] is not None
    assert expected[:2] == (16 * 39, [32]) and caught == 20
    assert later and tied and inner


@st.composite
def random_machines(draw):
    """Any machine of 1-6 states: random start, transitions and outputs,
    undefined outputs included."""
    n = draw(st.integers(min_value=1, max_value=6))
    targets = st.integers(min_value=0, max_value=n - 1)
    transitions = {(q, sym): draw(targets) for q in range(n) for sym in ALPHABET}
    output = tuple(draw(st.lists(st.sampled_from((-1, 1, None)), min_size=n, max_size=n)))
    return ParallelDFAO(n, draw(targets), transitions, output)


@st.composite
def sweep_cases(draw):
    """(rows, k_max): up to 6 rows of 1-9 tracks, duplicates allowed, and
    any k_max up to 3 past the last position the tracks can reach."""
    w = draw(st.integers(min_value=1, max_value=9))
    rows = draw(st.lists(st.lists(signs, min_size=w, max_size=w), min_size=1, max_size=6))
    if draw(st.booleans()):
        rows += rows[:draw(st.integers(min_value=1, max_value=len(rows)))]
    return np.array(rows, dtype=np.int8), draw(st.integers(min_value=1,
                                                           max_value=(1 << w) + 3))


@st.composite
def mutated_evaluators(draw):
    """The evaluator with one transition redirected anywhere."""
    states = st.integers(min_value=0, max_value=4)
    return replace_transition(build_pf_evaluator(), draw(states),
                              draw(st.sampled_from(ALPHABET)), draw(states))


@settings(max_examples=100, deadline=None)
@given(machine=st.one_of(random_machines(), mutated_evaluators(), st.just(build_pf_evaluator())),
       case=sweep_cases(), budget=st.integers(min_value=1, max_value=40))
def test_batch_runner_agrees_with_scalar_on_random_machines(machine, case, budget):
    # Random machines give columns that are not period 2, undefined
    # outputs, ties in k between duplicate rows and, where k_max stops
    # short of 2^w - 1, a partial last row of high digits.
    rows, k_max = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_batch, "CHUNK_ELEMENTS", budget)
        got = _batch.compare_formula_vs_dfao(machine, rows, k_max)
    assert got == _brute_force_sweep(machine, rows, k_max)


@settings(max_examples=100, deadline=None)
@given(machine=st.one_of(random_machines(), mutated_evaluators()),
       case=sweep_cases(), budget=st.integers(min_value=1, max_value=40))
@example(machine=replace_transition(build_pf_evaluator(), 1, (-1, 0), 4),
         case=(np.array([[1], [-1], [1]], dtype=np.int8), 3), budget=1)
@example(machine=replace_transition(build_pf_evaluator(), 2, (1, 1), 4),
         case=(_batch.sign_grid(3, 5), 20), budget=2)
def test_failing_rows_match_a_per_row_brute_force(machine, case, budget):
    # Each row's least failing k, over all its chunks on tiny budgets too,
    # is the least k of a brute force over that row alone, and a row that
    # never fails reads past every k the sweep checks.  The examples pin
    # width 1, whose column 1 holds only the undecidable k (last = -1), and
    # a k_max below 2^w - 1.
    rows, k_max = case
    chunks, least_k = [], _batch._least_k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_batch, "CHUNK_ELEMENTS", budget)
        mp.setattr(_batch, "_least_k", lambda *args: chunks.append(least_k(*args)) or chunks[-1])
        _batch.compare_formula_vs_dfao(machine, rows, k_max)
    got = np.concatenate(chunks).tolist()
    top = min(k_max, (1 << rows.shape[1]) - 1)
    assert len(got) == len(rows)
    for j, k in enumerate(got):
        mismatch = _brute_force_sweep(machine, rows[j:j + 1], k_max)[2]
        assert k > top if mismatch is None else k == mismatch[1]


@settings(max_examples=60)
@given(w=st.integers(min_value=1, max_value=11), data=st.data())
def test_digit_split_identities(w, data):
    # The two facts the batch sweep's formula side rests on, for every
    # split k = lo + 2^low * hi of the positions 1..2^w - 1:
    # (i)  P_f[lo + 2^low hi] = P_f[lo + 2^low (hi mod 2)] for lo != 0;
    # (ii) P_f[2^low hi] = P_{sigma^low f}[hi] for hi >= 1.
    rows = np.array(data.draw(st.lists(st.lists(signs, min_size=w, max_size=w),
                                       min_size=1, max_size=4)), dtype=np.int8)
    low = data.draw(st.integers(min_value=1, max_value=w))
    prefix = _batch.pf_prefix_matrix(rows, (1 << w) - 1)
    k = np.arange(1, 1 << w)
    lo, hi = k & ((1 << low) - 1), k >> low
    odd = lo != 0
    same = lo[odd] + ((hi[odd] & 1) << low)
    assert (prefix[:, k[odd] - 1] == prefix[:, same - 1]).all()
    if low < w:
        shifted = _batch.pf_prefix_matrix(rows[:, low:], (1 << (w - low)) - 1)
        assert (prefix[:, k[~odd] - 1] == shifted[:, hi[~odd] - 1]).all()


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

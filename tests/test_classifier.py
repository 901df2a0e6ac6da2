import random

import pytest

from foldscope import (check_reported_sets, export_table_csv,
                       make_instructions, s_value, synthesize_table,
                       table_to_json)
from foldscope.appearance import scan_depth
from foldscope.classifier import (EXPECTED_A_SETS, EXPECTED_ROWS_N1,
                                  EXPECTED_ROWS_N2, EXPECTED_S_SETS)
from foldscope.folding import instruction

# frozen from the synthesis itself (cross-checked by the subset assertions
# below); f_2 turns out irrelevant for n in {3, 4} and f_3 for n = 6
EXPECTED_RELEVANT_BITS = {
    1: (0, 1),
    2: (0, 1, 2),
    3: (1, 3, 4),
    4: (1, 3, 4),
    5: (1, 2, 4, 5),
    6: (0, 1, 2, 4, 5),
}


def test_rejects_out_of_range():
    for n in (0, 7, -1):
        with pytest.raises(ValueError):
            synthesize_table(n)


def test_table_n1_rows_exact():
    table = synthesize_table(1)
    assert table.relevant_bits == (0, 1)
    assert table.rows == EXPECTED_ROWS_N1
    assert table.value_set == (2, 3)


def test_table_n2_rows_exact():
    table = synthesize_table(2)
    assert table.relevant_bits == (0, 1, 2)
    assert table.rows == EXPECTED_ROWS_N2
    assert table.value_set == (4, 5, 6)


@pytest.mark.parametrize("n", range(1, 7))
def test_value_sets(n):
    table = synthesize_table(n)
    assert table.value_set == EXPECTED_S_SETS[n]
    assert tuple(v + n - 1 for v in table.value_set) == EXPECTED_A_SETS[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_relevant_bits(n):
    assert synthesize_table(n).relevant_bits == EXPECTED_RELEVANT_BITS[n]


def test_sets_for_n3_and_n4_coincide():
    assert synthesize_table(3).value_set == synthesize_table(4).value_set


def test_rows_total_over_relevant_bits():
    for n in range(1, 7):
        table = synthesize_table(n)
        assert len(table.rows) == 1 << len(table.relevant_bits)
        assert set(table.rows.values()) == set(table.value_set)


def test_check_reported_sets_passes():
    outcome = check_reported_sets()
    assert outcome.passed
    assert outcome.mode == "exhaustive"
    assert outcome.details["relevant_bits"] == {
        n: list(bits) for n, bits in EXPECTED_RELEVANT_BITS.items()}


def test_minimality_every_listed_bit_has_a_witness():
    # flipping any relevant bit changes the value for some prefix
    from foldscope.appearance import grid_s_values
    for n in (1, 3, 6):
        table = synthesize_table(n)
        depth = scan_depth(n)
        values = grid_s_values(n, depth)
        for t in table.relevant_bits:
            assert any(values[i] != values[i ^ (1 << t)]
                       for i in range(1 << depth))


def test_rows_predict_fresh_instruction_sets():
    # 1000 instruction sets per table, none of them synthesis inputs
    # (synthesis enumerates bare scan_depth(n)-bit prefixes; these all
    # carry tails)
    rng = random.Random(424242)
    for n in range(1, 7):
        table = synthesize_table(n)
        for _ in range(1000 // 6 + 1):
            prefix = [rng.choice((-1, 1)) for _ in range(rng.randint(0, 8))]
            tail = [rng.choice((-1, 1)) for _ in range(rng.randint(1, 4))]
            f = make_instructions(prefix, tail)
            key = tuple(instruction(f, t) for t in table.relevant_bits)
            assert table.rows[key] == s_value(f, n)


# --- exports ----------------------------------------------------------------

def test_csv_n1():
    csv = export_table_csv(synthesize_table(1))
    assert csv == "f0,f1,S\n-1,-1,3\n-1,1,2\n1,-1,2\n1,1,3\n"


def test_csv_n2_row_count_and_determinism():
    table = synthesize_table(2)
    csv = export_table_csv(table)
    assert len(csv.strip().splitlines()) == 9  # header + 8 rows
    assert csv == export_table_csv(synthesize_table(2))


def test_json_mirror():
    table = synthesize_table(3)
    record = table_to_json(table)
    assert set(record) == {"n", "relevant_bits", "rows", "value_set"}
    assert record["n"] == 3
    assert record["relevant_bits"] == [1, 3, 4]
    assert len(record["rows"]) == 8
    assert record["value_set"] == [14, 16, 22, 24]

"""Exact classification of S_f(n) for small n (1 <= n <= 6).

Below length 7 the closed form does not apply and S_f(n) depends on a
handful of leading instruction bits in irregular ways.  This module
re-derives the behavior from scratch: enumerate every instruction prefix
deep enough to cover the scan, detect the minimal set of bits the value
depends on by flip-one sensitivity, and tabulate the value over those
bits.  The published value sets and bit-dependence claims then become
checks against the synthesized tables, not inputs to them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import appearance
from .appearance import scan_depth
from .verification import VerificationOutcome, _run_suite

# expected value sets for S_f(n) and A_f(n), n = 1..6
EXPECTED_S_SETS = {
    1: (2, 3),
    2: (4, 5, 6),
    3: (14, 16, 22, 24),
    4: (14, 16, 22, 24),
    5: (28, 32, 44, 48),
    6: (31, 32, 47, 48),
}
EXPECTED_A_SETS = {n: tuple(v + n - 1 for v in vals)
                   for n, vals in EXPECTED_S_SETS.items()}

# documented upper bounds on which bits may matter
EXPECTED_BIT_SUPERSETS = {
    1: (0, 1),
    2: (0, 1, 2),
    3: (1, 2, 3, 4),
    4: (1, 2, 3, 4),
    5: (1, 2, 3, 4, 5),
    6: (0, 1, 2, 3, 4, 5),
}

# explicit row classifications for the two smallest lengths
EXPECTED_ROWS_N1 = {(-1, -1): 3, (-1, 1): 2, (1, -1): 2, (1, 1): 3}
EXPECTED_ROWS_N2 = {
    (-1, -1, -1): 6, (-1, -1, 1): 4, (-1, 1, -1): 4, (-1, 1, 1): 5,
    (1, -1, -1): 5, (1, -1, 1): 4, (1, 1, -1): 4, (1, 1, 1): 6,
}


@dataclass(frozen=True)
class ClassifierTable:
    """S_f(n) for fixed n < 7 as a function of the relevant instruction bits.

    `rows` is total over all sign tuples of the relevant bits; `value_set`
    is the sorted set of attained values.  Relevance is minimal: every
    listed bit has a witness pair of prefixes differing only there with
    different values.
    """

    n: int
    relevant_bits: tuple[int, ...]
    rows: dict
    value_set: tuple[int, ...]


def synthesize_table(n: int) -> ClassifierTable:
    """Enumerate, detect relevant bits, and tabulate S_f(n) for n in 1..6.

    Every scan_depth(n)-bit prefix is enumerated: the bits the scan for n
    can read, the same depth rule every verify suite uses.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"classifier tables exist for 1 <= n <= 6, got n={n}")
    depth = scan_depth(n)
    values = appearance.grid_s_values(n, depth)
    total = 1 << depth

    relevant = tuple(t for t in range(depth)
                     if any(values[i] != values[i ^ (1 << t)] for i in range(total)))

    # group every enumerated prefix by its relevant-bit projection and
    # insist the value is constant within each group
    rows: dict = {}
    for i in range(total):
        key = tuple(1 if (i >> t) & 1 else -1 for t in relevant)
        if key in rows:
            if rows[key] != values[i]:
                raise RuntimeError(
                    f"bits {relevant} do not determine S at n={n}: "
                    f"projection {key} maps to both {rows[key]} and {values[i]}")
        else:
            rows[key] = values[i]
    ordered = {key: rows[key]
               for key in itertools.product((-1, 1), repeat=len(relevant))}
    return ClassifierTable(
        n=n,
        relevant_bits=relevant,
        rows=ordered,
        value_set=tuple(sorted(set(ordered.values()))),
    )


def check_reported_sets() -> VerificationOutcome:
    """Synthesized tables versus the published value sets and bit claims.

    Checks, for n = 1..6: the attained S and A value sets, that the
    relevant bits stay within the documented supersets, and the explicit
    row classifications for n = 1 and n = 2.
    """
    tables = {n: synthesize_table(n) for n in range(1, 7)}
    expected_rows = {1: EXPECTED_ROWS_N1, 2: EXPECTED_ROWS_N2}

    def check_n(n, _sampled):
        table = tables[n]
        a_set = tuple(v + n - 1 for v in table.value_set)
        counter = None
        if table.value_set != EXPECTED_S_SETS[n]:
            counter = {"n": n, "kind": "s_set",
                       "expected": list(EXPECTED_S_SETS[n]),
                       "observed": list(table.value_set)}
        elif a_set != EXPECTED_A_SETS[n]:
            counter = {"n": n, "kind": "a_set",
                       "expected": list(EXPECTED_A_SETS[n]),
                       "observed": list(a_set)}
        elif not set(table.relevant_bits) <= set(EXPECTED_BIT_SUPERSETS[n]):
            counter = {"n": n, "kind": "relevant_bits",
                       "allowed": list(EXPECTED_BIT_SUPERSETS[n]),
                       "observed": list(table.relevant_bits)}
        elif n in expected_rows and table.rows != expected_rows[n]:
            counter = {"n": n, "kind": "rows",
                       "observed": {str(k): v for k, v in table.rows.items()}}
        return 1 << scan_depth(n), scan_depth(n), counter

    return _run_suite("small-n-tables", 1, 6, check_n, details={
        "relevant_bits": {n: list(t.relevant_bits) for n, t in tables.items()}})


def export_table_csv(table: ClassifierTable) -> str:
    """CSV rendering: one column per relevant bit, rows in tuple order."""
    header = ",".join([f"f{t}" for t in table.relevant_bits] + ["S"])
    lines = [header]
    for key, value in table.rows.items():
        lines.append(",".join([str(v) for v in key] + [str(value)]))
    return "\n".join(lines) + "\n"


def table_to_json(table: ClassifierTable) -> dict:
    """JSON mirror with the same field names as ClassifierTable."""
    return {
        "n": table.n,
        "relevant_bits": list(table.relevant_bits),
        "rows": [{"bits": list(k), "s": v} for k, v in table.rows.items()],
        "value_set": list(table.value_set),
    }


def table_to_text(table: ClassifierTable) -> str:
    """Human-readable table used by the command-line front end."""
    bit_names = " ".join(f"f{t}" for t in table.relevant_bits)
    lines = [f"S(n={table.n}) depends on: {bit_names}",
             f"value set: {{{', '.join(str(v) for v in table.value_set)}}}"]
    for key, value in table.rows.items():
        cells = " ".join(f"{v:+d}" for v in key)
        lines.append(f"  {cells}  ->  {value}")
    return "\n".join(lines) + "\n"

"""Internal numpy helpers for bulk enumeration.

Everything here is plumbing for the verification suites: sign grids over
instruction bits, bulk sequence prefixes, and a vectorized runner that
drives a DFAO's transition table over many instruction streams at once.
The scalar implementations in folding.py / dfao.py stay the reference;
tests cross-check these against them.
"""

from __future__ import annotations

import numpy as np

from .folding import position_blocks

PLUS = ord("+")
MINUS = ord("-")


def sign_grid(depth: int) -> np.ndarray:
    """All 2^depth instruction patterns as a (2^depth, depth) array of +-1.

    Row i encodes f_t = +1 iff bit t of i is set, so row 0 is all -1 and
    the last row is all +1.
    """
    idx = np.arange(1 << depth, dtype=np.uint32)[:, None]
    bits = (idx >> np.arange(depth, dtype=np.uint32)[None, :]) & 1
    return (2 * bits.astype(np.int8) - 1)


def extend_cyclic(rows: np.ndarray, width: int) -> np.ndarray:
    """Repeat columns periodically up to `width` (identity if wide enough)."""
    m, w = rows.shape
    if w >= width:
        return rows
    reps = -(-width // w)
    return np.tile(rows, (1, reps))[:, :width]


def pf_prefix_matrix(rows: np.ndarray, length: int) -> np.ndarray:
    """Sequence prefixes P[1:length] for every instruction row.

    rows[:, s] supplies f_s; requires enough columns for every position.
    """
    m, w = rows.shape
    if length.bit_length() > w:
        raise ValueError(f"{w} instruction columns cannot cover positions up to {length}")
    out = np.empty((m, length), dtype=np.int8)
    for s, same, flipped in position_blocks(length):
        out[:, same.start::same.step] = rows[:, s:s + 1]
        out[:, flipped.start::flipped.step] = -rows[:, s:s + 1]
    return out


def sign_matrix_to_bytes(values: np.ndarray) -> list[bytes]:
    """Each +-1 row rendered as a b'+'/b'-' bytestring."""
    chars = np.where(values > 0, np.uint8(PLUS), np.uint8(MINUS))
    m, length = chars.shape
    raw = chars.tobytes()
    return [raw[i * length:(i + 1) * length] for i in range(m)]


def transition_tables(dfao) -> tuple[np.ndarray, np.ndarray]:
    """(T, out): T[state, sign01, bit] -> state, out[state] with 0 = undefined."""
    t = np.zeros((dfao.state_count, 2, 2), dtype=np.uint8)
    for (state, (sign, bit)), target in dfao.transitions.items():
        t[state, (sign + 1) >> 1, bit] = target
    out = np.zeros(dfao.state_count, dtype=np.int8)
    for state, val in enumerate(dfao.output):
        out[state] = 0 if val is None else val
    return t, out


def decidable_width(k: int) -> int:
    """Track length needed before the automaton's output is defined for k.

    One past the lowest set bit of k, and never less than the full
    expansion: max(bit_length(k), trailing_zeros(k) + 2).
    """
    s = (k & -k).bit_length() - 1
    return max(k.bit_length(), s + 2)


def compare_formula_vs_dfao(dfao, rows: np.ndarray, k_max: int):
    """Run the DFAO and the closed formula over every (row, k) pair.

    Checks all k <= k_max whose decidable width fits the rows' length and
    returns (cases, skipped_ks, mismatch); mismatch is None or a tuple
    (row_index, k, formula_value, dfao_value_or_None) minimizing (k, row).
    skipped_ks lists the positions the track length cannot decide.

    The k values are walked as a DFS over the lsd-first digit trie so that
    positions sharing low digits share their state trajectories; this is
    what keeps full 2^16-position sweeps fast.
    """
    t, out = transition_tables(dfao)
    m, w = rows.shape
    sgn01 = ((rows + 1) >> 1).astype(np.uint8)
    digit_cols = [np.ascontiguousarray(sgn01[:, i]) for i in range(w)]
    skipped = [k for k in (1 << (w - 1),) if k <= k_max]
    skipped += list(range(1 << w, k_max + 1))
    cases = 0
    best = None

    start_vec = np.full(m, dfao.start_state, dtype=np.uint8)
    stack = [(0, 0, start_vec)]
    while stack:
        i, kpart, state = stack.pop()
        if i == w:
            k = kpart
            if k == 0 or k > k_max or decidable_width(k) > w:
                continue
            got = out[state]
            s = (k & -k).bit_length() - 1
            want = rows[:, s] if (k >> s) & 3 == 1 else -rows[:, s]
            cases += m
            bad = got != want
            if bad.any():
                j = int(np.argmax(bad))
                if best is None or (k, j) < (best[1], best[0]):
                    val = int(got[j])
                    best = (j, k, int(want[j]), val if val else None)
            continue
        if kpart > k_max:
            continue
        col = digit_cols[i]
        stack.append((i + 1, kpart, t[state, col, 0]))
        stack.append((i + 1, kpart + (1 << i), t[state, col, 1]))
    return cases, sorted(skipped), best

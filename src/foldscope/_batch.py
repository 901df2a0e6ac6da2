"""Internal numpy helpers for bulk enumeration.

Everything here is plumbing for the verification suites: sign grids over
instruction bits, bulk sequence prefixes filled as the b'+'/b'-' byte
rows every scan reads, the band kernel that reads the latest first start
for every n of a phi-band off one sort per prefix, and a vectorized
runner that drives a DFAO's transition table over many instruction
streams at once.  The scalar implementations in folding.py /
appearance.py / dfao.py stay the reference; tests cross-check these
against them.
"""

from __future__ import annotations

import numpy as np

from .folding import position_blocks

PLUS = ord("+")
MINUS = ord("-")


def sign_grid(depth: int, width: int = 0) -> np.ndarray:
    """All 2^depth instruction patterns as a (2^depth, max(depth, width))
    array of +-1.

    Row i encodes f_t = +1 iff bit (t mod depth) of i is set, so row 0 is
    all -1, the last row is all +1, and columns past depth repeat the
    pattern cyclically.
    """
    cols = np.arange(max(depth, width), dtype=np.uint32) % depth
    idx = np.arange(1 << depth, dtype=np.uint32)[:, None]
    bits = (idx >> cols[None, :]) & 1
    return (2 * bits.astype(np.int8) - 1)


def pf_prefix_matrix(rows: np.ndarray, length: int) -> np.ndarray:
    """Sequence prefixes P[1:length] for every instruction row, as a
    (rows, length) uint8 matrix of b'+'/b'-'.

    rows[:, s] supplies f_s; requires enough columns for every position.
    """
    m, w = rows.shape
    if length.bit_length() > w:
        raise ValueError(f"{w} instruction columns cannot cover positions up to {length}")
    same_sign = np.where(rows > 0, np.uint8(PLUS), np.uint8(MINUS))
    flipped_sign = np.where(rows > 0, np.uint8(MINUS), np.uint8(PLUS))
    out = np.empty((m, length), dtype=np.uint8)
    for s, same, flipped in position_blocks(length):
        out[:, same.start::same.step] = same_sign[:, s:s + 1]
        out[:, flipped.start::flipped.step] = flipped_sign[:, s:s + 1]
    return out


def prefix_rows(rows: np.ndarray, length: int) -> tuple:
    """P[1:length] of every instruction row, one b'+'/b'-' bytes each (the
    form the band kernel and the lemma checks read)."""
    raw = pf_prefix_matrix(rows, length).tobytes()
    return tuple(raw[i * length:(i + 1) * length] for i in range(len(rows)))


# Prefix bytes per chunk of the band kernel.  Its working set peaks near
# 65 bytes per prefix byte, so a chunk stays near one megabyte.
CHUNK_ELEMENTS = 1 << 14

# Window codes of 2^j signs for j <= 6 fit these unsigned types.
_CODE_TYPES = (np.uint8, np.uint8, np.uint8, np.uint8, np.uint16, np.uint32, np.uint64)


def _window_keys(bits: np.ndarray, k: int) -> list:
    """keys[j][r, i] orders the length-2^j windows of row r starting at i
    lexicographically, for j = 0..k, and is equal exactly when they are.

    Up to 64 signs a key is the window itself packed MSB-first; beyond
    that it is a dense rank of the pair of half-window ranks, packed as
    left << 32 | right (prefix doubling).  Ranks are shared across the
    rows of `bits`.
    """
    keys = [bits]
    for j in range(k):
        h = 1 << j
        prev = keys[-1]
        if j < 6:
            t = _CODE_TYPES[j + 1]
            keys.append((prev[:, :-h].astype(t) << t(h)) | prev[:, h:].astype(t))
            continue
        if j == 6:
            # two 64-sign codes do not fit one integer: rank them first
            prev = _dense_rank(prev)
            keys[-1] = prev
        # int32 ranks are non-negative, so the pair packs into one int64
        pairs = (prev[:, :-h].astype(np.int64) << 32) | prev[:, h:]
        keys.append(_dense_rank(pairs))
    return keys


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct values of the whole array."""
    _, inverse = np.unique(values.ravel(), return_inverse=True)
    return inverse.astype(np.int32).reshape(values.shape)


def _chunk_first_starts(bits: np.ndarray, p: int) -> np.ndarray:
    """band_first_starts for one chunk of 0/1 rows of length 13p - 1."""
    k = p.bit_length() - 1
    r, m = bits.shape[0], 12 * p
    keys = _window_keys(bits, k)
    order = np.argsort(keys[k], axis=1, kind="stable")
    # Of equal length-p windows, which the stable sort keeps in start
    # order, only the first can be a first start for any n <= p.
    top = np.take_along_axis(keys[k], order, axis=1)
    first = np.ones((r, m), dtype=bool)
    first[:, 1:] = top[:, 1:] != top[:, :-1]
    kept = np.flatnonzero(first)
    order = order.ravel()
    starts = order[kept]
    # LCP with the sorted neighbour by binary lifting over the window
    # levels; offsets stay below p, so every window read lies in the row.
    # A row's first window has no neighbour and starts a run for every n;
    # any other kept window is compared with the window sorted just
    # before it, which equals the previous kept one.
    inner = np.flatnonzero(kept % m)
    row = kept[inner] // m
    a, b = starts[inner], order[kept[inner] - 1]
    common = np.zeros(inner.size, dtype=np.int64)
    for j in reversed(range(k)):
        key = keys[j]
        flat, base = key.ravel(), row * key.shape[1]
        common += (flat[base + a + common] == flat[base + b + common]).astype(np.int64) << j
    lcp = np.full(kept.size, -1, dtype=np.int64)
    lcp[inner] = common
    starts = (starts + 1).astype(np.int32)
    # A run of lcp >= n holds the windows sharing one length-n factor.
    row_begin = np.searchsorted(kept, np.arange(r) * m)
    out = np.empty((r, p - p // 2), dtype=np.int32)
    for c, n in enumerate(range(p // 2 + 1, p + 1)):
        heads = np.flatnonzero(lcp < n)
        firsts = np.minimum.reduceat(starts, heads)
        out[:, c] = np.maximum.reduceat(firsts, np.searchsorted(heads, row_begin))
    return out


def band_first_starts(prefixes, p: int) -> np.ndarray:
    """Latest first start, over starts 1..12p, for every n of a phi-band.

    `prefixes` are equal-length b'+'/b'-' strings of at least 13p - 1
    signs and p is a power of two.  Column c of the (rows, p - p//2)
    result is n = p//2 + 1 + c, and its entry for a row is
    max(_scan_first_starts(prefix, n, 12p).values()).

    Each row's 12p windows of length p are sorted once; the windows
    sharing a length-n factor are then a run of neighbours whose longest
    common prefix is at least n, the factor's first start is the least
    start in its run, and the result is the largest of those.  Rows are
    processed in chunks of about CHUNK_ELEMENTS prefix bytes.
    """
    length = 13 * p - 1
    rows = len(prefixes)
    out = np.empty((rows, p - p // 2), dtype=np.int32)
    if rows and len(prefixes[0]) < length:
        raise ValueError(f"band of phi={p} needs prefixes of {length} signs, "
                         f"got {len(prefixes[0])}")
    step = max(1, CHUNK_ELEMENTS // length)
    for lo in range(0, rows, step):
        chunk = prefixes[lo:lo + step]
        raw = np.frombuffer(b"".join(pb[:length] for pb in chunk), dtype=np.uint8)
        bits = (raw.reshape(len(chunk), length) == PLUS).astype(np.uint8)
        out[lo:lo + step] = _chunk_first_starts(bits, p)
    return out


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

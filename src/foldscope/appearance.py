"""Appearance functions of paper-folding sequences.

For an infinite word w, S_w(n) is the least k such that every length-n
factor of w starts within w[1:k], and A_w(n) = S_w(n) + n - 1 is the
least prefix length containing a copy of every length-n factor.  Both are
computed here by an honest first-occurrence scan, and independently
predicted in closed form for n >= 7:

    S_f(n) = 4*phi(n)  if f_{k+1} != f_{k+2},  else  6*phi(n),

where phi(n) = 2^k is the least power of two >= n.  The scan and the
prediction are deliberately separate code paths; the verification module
exists to compare them.

Both scans read starts 1..6*phi(n) of a prefix of 7*phi(n) - 1 signs;
the residue lemma proves that horizon.  P_f[k], k = 2^s * r with r odd,
is f_s or -f_s as r = 1 or 3 (mod 4), so it is fixed by f_s and k mod
2^(s+2).  Let phi(n) = 2^m.  A window of n <= 2^m positions holds at
most one multiple of 2^m, its deep position; shifting the window by
2*phi = 2^(m+1) keeps every other sign.  So the window at c + 2*phi*q
(1 <= c <= 2*phi, q >= 0) is the window at c except perhaps at its deep
position, phi*(1 + 2q) or 2*phi*(1 + q) (the window at c ends before
3*phi).  The first has valuation m and the sign +-f_m as q is even or
odd.  The second has the sign P_g[1 + q], g = f shifted by m + 1
instructions, and P_g[1..3] = g_0, g_1, -g_0.  Either way q <= 2 gives
both deep signs, so for every f and n each length-n factor occurs at a
start <= 2*phi + 4*phi = 6*phi(n).  The factor set is the windows at
starts 1..2*phi, each also taken with its deep sign flipped; it has 4n
members from n = 7 on (Allouche, "The number of factors in a
paperfolding sequence", 1992; the interleaving is that of Dekking,
Mendes France & van der Poorten, "Folds!", 1982).  A finite instruction
set is read only as far as its prefix, which its infinite extensions
share.

The scalar _scan_first_starts (a dict of first starts) serves the
per-instance reports and is the oracle the tests hold the other scan to.
Bulk S values come from the band kernel _batch.band_first_starts, which
takes int8 instruction rows, sorts each row's prefix's windows once,
reads each window's longest previous factor off the sorted order (a
window is a first start for n exactly when that is below n) and yields
S(n) for every n of a phi-band (phi/2, phi].  The one band store keeps
it, or the lemma summary, in one table per kernel and phi-band with a
row per key: the m + 3 signs f_0..f_(m+2) the band prefix reads (phi =
2^m), a key and its negation as one row unless a request asks otherwise.
Each key is scanned once per process, whichever request reads it first.
The tables are not bounded and evict nothing.  The reads are cached on
the rows' bytes, the CACHE_SIZE most recent of them: a repeat read of
equal rows, whatever the array, is handed what the first read returned.
The verify suites read a whole band at once through stored_band and
reduce over its rows; grid_s_values gathers one n of a grid's S band
through its rows' index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _batch
from .folding import (Factor, FoldingInstructions, SignWord, instruction,
                      required_instruction_count)
from .folding import pf_prefix_bytes as _prefix_bytes

_PLUS = _batch.PLUS
_MINUS = _batch.MINUS
# byte order for canonical factor sorting: '-' (-1) sorts before '+' (+1)
_SORT_TABLE = bytes(0 if c == _MINUS else (1 if c == _PLUS else c)
                    for c in range(256))


class AmbiguousLastFactor(RuntimeError):
    """Two distinct factors tied for the latest first start.

    Each start is the start of one window, so distinct factors have
    distinct first starts at every n; seeing this means the scan itself is
    corrupted.
    """


@dataclass(frozen=True)
class AppearanceReport:
    """S/A values for one (instructions, n) pair plus the witnessing factor."""

    n: int
    phi_n: int
    s_value: int
    a_value: int
    last_factor: Factor
    factor_count: int
    horizon_used: int


def phi(n: int) -> int:
    """Least power of two >= n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def scan_depth(n: int) -> int:
    """Instruction bits the verify suites and the classifier enumerate for
    length n: with phi(n) = 2^m, one above the m + 3 bits f_0..f_(m+2)
    that the band_length(n) = 7*phi(n) - 1 sign prefix reads."""
    return required_instruction_count(12 * phi(n) + n)


def _scan_first_starts(prefix: bytes, n: int, limit: int) -> dict:
    """First start (1-based) of each distinct length-n window, starts 1..limit."""
    firsts: dict = {}
    record = firsts.setdefault
    for i in range(limit):
        record(prefix[i:i + n], i + 1)
    return firsts


def _first_starts(f: FoldingInstructions, n: int) -> tuple[dict, int]:
    """(first-starts map, S) from one scan of starts 1..6*phi(n) of P_f,
    which by the residue lemma sees every length-n factor.

    Raises InstructionExhausted if a finite instruction set runs out first.
    """
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    h = 6 * phi(n)
    firsts = _scan_first_starts(_prefix_bytes(f, h + n - 1), n, h)
    return firsts, max(firsts.values())


def distinct_factors(f: FoldingInstructions, n: int) -> dict:
    """Map from each distinct length-n factor to its first start index.

    Keys are SignWord instances in canonical order (lexicographic with
    -1 before +1); values are 1-based start positions.
    """
    firsts, _ = _first_starts(f, n)
    items = sorted(firsts.items(), key=lambda kv: kv[0].translate(_SORT_TABLE))
    return {SignWord.from_text(w.decode()): start for w, start in items}


def s_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor starts within P_f[1:k]."""
    return _first_starts(f, n)[1]


def a_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor lies within P_f[1:k]."""
    return s_value(f, n) + n - 1


def appearance_report(f: FoldingInstructions, n: int) -> AppearanceReport:
    """Full appearance data for (f, n), including the last-appearing factor."""
    firsts, s = _first_starts(f, n)
    winners = [w for w, start in firsts.items() if start == s]
    if len(winners) != 1:
        raise AmbiguousLastFactor(
            f"{len(winners)} factors share the latest first start {s} at n={n}")
    p = phi(n)
    return AppearanceReport(
        n=n,
        phi_n=p,
        s_value=s,
        a_value=s + n - 1,
        last_factor=Factor(SignWord.from_text(winners[0].decode()), s),
        factor_count=len(firsts),
        horizon_used=6 * p,
    )


def report_to_json(report: AppearanceReport) -> dict:
    """The documented JSON shape for an AppearanceReport."""
    return {
        "n": report.n,
        "phi": report.phi_n,
        "s": report.s_value,
        "a": report.a_value,
        "last_factor": report.last_factor.word.to_text(),
        "first_start": report.last_factor.first_start,
        "factor_count": report.factor_count,
        "horizon": report.horizon_used,
    }


def predicted_s(f: FoldingInstructions, n: int) -> int:
    """Closed-form S_f(n) for n >= 7, from the two instruction bits after
    the exponent of phi(n)."""
    if n < 7:
        raise ValueError(f"the closed form applies for n >= 7 only, got n={n}")
    p = phi(n)
    k = p.bit_length() - 1
    return 4 * p if instruction(f, k + 1) != instruction(f, k + 2) else 6 * p


def predicted_a(f: FoldingInstructions, n: int) -> int:
    """Closed-form A_f(n) = predicted_s(f, n) + n - 1 for n >= 7."""
    return predicted_s(f, n) + n - 1


# ---------------------------------------------------------------------------
# bulk enumeration used by the verification and classifier modules

# Entries kept by each memoized cache (the grids, the samples and the band
# store's reads), so a long-lived process holds a bounded number of them;
# each evicts its least recently used.  The band store's tables are not
# bounded and evict nothing: at most one table per band kernel and
# phi-band, and each table at most one row per key.
CACHE_SIZE = 32


def band_length(n: int) -> int:
    """Prefix length shared by every scan and target-LCP kernel in the
    phi-band of n: the windows at starts 1..6*phi(n) of length phi(n)."""
    return 7 * phi(n) - 1


def band_index(n: int) -> int:
    """Column of n in its phi-band: n = phi(n)//2 + 1 + column."""
    return n - phi(n) // 2 - 1


# The band store.  The band prefix P[1:7p - 1] of phi-band p = 2^m reads
# f_0..f_(m+2) only, f_s at the positions 2^s * odd <= 4p, so those m + 3
# signs, the key, fix every value a band kernel gives a row.  For each
# kernel and p the store keeps one int32 table with one row per key read
# so far, in key order (_band_keys): the keys with f_0 = +1 come first and
# those with f_0 = -1 after them.  Negation keeps equal windows equal and
# every common prefix, so a prefix and its negation read the same values,
# and a request with the negation map on, as every suite but monotonicity
# makes, reads only keys with f_0 = +1.  A key reaches its kernel once per
# process (_BandTable.fill).  The tables evict nothing, but a table holds
# only the keys read: a grid at p = 256 fills the 1,024 keys of its half,
# 1,024 x 128 int32 for S, 0.5 MB, and a sampled band at p = 2048 its
# ~200 keys, 0.8 MB, not the 2^14 rows of its key space.
class _BandTable:
    """One band kernel's band p: the rows of the keys read so far, in key
    order, and which keys those are."""

    def __init__(self, kernel, p: int):
        self.kernel, self.p = kernel, p
        self.bits = band_length(p).bit_length()
        self.filled = np.zeros(1 << self.bits, bool)
        self.values = None

    def rows_of(self, keys: np.ndarray) -> np.ndarray:
        """The table row of each filled key: the filled keys below it."""
        return np.cumsum(self.filled)[keys] - 1

    def fill(self, keys: np.ndarray) -> None:
        """Run the kernel once on the instruction rows of `keys`, ascending
        key indices not yet filled, and put their rows in key order."""
        values = self.kernel(_key_signs(keys, self.bits), self.p)
        if self.values is not None:
            values = np.insert(self.values, np.cumsum(self.filled)[keys], values, axis=0)
        self.values = values
        self.filled[keys] = True


_TABLES: dict = {}


def _table(kernel, p: int) -> _BandTable:
    """The store's table of `kernel` for band p, made empty on first use."""
    table = _TABLES.get((kernel, p))
    if table is None:
        table = _TABLES[kernel, p] = _BandTable(kernel, p)
    return table


def _key_bits(bits: int) -> np.ndarray:
    """The key's bit of each sign f_0..f_(bits - 1): f_s with s >= 1 is bit
    s - 1, and f_0 the top bit, set for f_0 = -1."""
    return (np.arange(bits, dtype=np.int64) - 1) % bits


def _band_keys(rows: np.ndarray, p: int, by_negation: bool) -> np.ndarray:
    """Each +-1 instruction row's key index in the tables of band p = 2^m:
    its signs f_0..f_(m+2) as one integer, one product of the sign bits
    with powers of two (_key_bits).  With by_negation a row with f_0 = -1
    is keyed as its negation.  Rows of fewer than m + 3 columns raise
    ValueError."""
    length = 7 * p - 1
    bits = length.bit_length()
    if rows.shape[1] < bits:
        raise ValueError(f"{rows.shape[1]} instruction columns cannot cover positions "
                         f"up to {length}")
    plus = rows[:, :bits] > 0
    if by_negation:
        plus ^= ~plus[:, :1]
    plus[:, 0] = ~plus[:, 0]
    return plus @ (np.int64(1) << _key_bits(bits))


def _key_signs(keys: np.ndarray, bits: int) -> np.ndarray:
    """The int8 instruction rows f_0..f_(bits - 1) of key indices `keys`,
    the inverse of _band_keys with the negation map off."""
    plus = (keys[:, None] >> _key_bits(bits)) & 1
    plus[:, 0] ^= 1
    return np.where(plus == 1, np.int8(1), np.int8(-1))


def stored_band(kernel, rows: np.ndarray, p: int, by_negation: bool = True) -> tuple:
    """The band accessor: (per_key, inverse), read-only, of band p of
    `kernel`, a _batch band kernel, on the int8 instruction rows `rows`
    (each of at least m + 3 signs, p = 2^m).  Row r reads
    per_key[inverse[r], band_index(n)] at n; for S, that is S(n).

    per_key holds the rows of the distinct keys of `rows`, in key order,
    and inverse each row's key's rank among them, so two kernels' bands
    of the same rows line up row for row.  The kernel runs once, in key
    order, on the keys no request has read before.  Where the keys read
    are the table's first rows, as for a grid that reads every key with
    f_0 = +1 (every key, with by_negation off), per_key is the table
    itself and inverse the rows' key indices; otherwise per_key is a
    gather of the rows read.  With by_negation off a row with f_0 = -1
    reads the values of its own prefix, never its negation's.

    Reads are cached on the rows' bytes (_read): a repeat request with
    equal rows, whatever the array, is handed the pair the first read
    returned, while that read is among the CACHE_SIZE most recent.  Rows
    that are not a 2-D int8 array raise ValueError."""
    if rows.ndim != 2 or rows.dtype != np.int8:
        raise ValueError(f"instruction rows must be a 2-D int8 array, "
                         f"got {rows.ndim}-D {rows.dtype}")
    return _read(kernel, rows.tobytes(), rows.shape, p, by_negation)


@lru_cache(maxsize=CACHE_SIZE)
def _read(kernel, data: bytes, shape: tuple, p: int, by_negation: bool) -> tuple:
    """stored_band on the rows of `shape` whose int8 bytes are `data`."""
    rows = np.frombuffer(data, np.int8).reshape(shape)
    table = _table(kernel, p)
    keys = _band_keys(rows, p, by_negation)
    read = np.zeros(len(table.filled), bool)
    read[keys] = True
    missing = np.flatnonzero(read > table.filled)
    if missing.size or table.values is None:
        table.fill(missing)
    inverse = (np.cumsum(read) - 1)[keys]
    # the rows read, ascending, are the table's first ones when the last
    # of them is their count - 1
    at = table.rows_of(np.flatnonzero(read))
    first_rows = not len(at) or at[-1] == len(at) - 1
    per_key = table.values[:len(at)] if first_rows else table.values[at]
    per_key.flags.writeable = inverse.flags.writeable = False
    return per_key, inverse


@lru_cache(maxsize=CACHE_SIZE)
def sign_grid(depth: int, width: int = 0) -> np.ndarray:
    """_batch.sign_grid(depth, width) as a read-only array, built once per
    shape."""
    rows = _batch.sign_grid(depth, width)
    rows.flags.writeable = False
    return rows


def grid_s_values(n: int, depth: int) -> np.ndarray:
    """S(n) for every depth-bit instruction pattern, as a fresh numpy
    column gathered from the stored phi-band of n.

    Pattern i has f_t = +1 iff bit t of i is set (grid row order), and
    depth must cover every bit the scan for n reads.
    """
    per_key, inverse = stored_band(_batch.band_first_starts, sign_grid(depth), phi(n))
    return per_key[:, band_index(n)].take(inverse)


# Trace-only, like verification._sample_prefix_bytes: no library code calls
# them, perfbench/layers.py wraps them by name, ROADMAP item 1 drops both.
def _grid_prefix_bytes(depth: int, width: int, length: int) -> np.ndarray:
    """Sequence prefixes of every pattern of _batch.sign_grid(depth, width)."""
    return _batch.pf_prefix_matrix(_batch.sign_grid(depth, width), length)


def _s_from_prefix(prefix: bytes, n: int) -> int:
    """S(n) of one band prefix, by the scalar scan."""
    return max(_scan_first_starts(prefix, n, 6 * phi(n)).values())


def clear_caches():
    """Drop the band store, its cached reads and the memoized grids (used
    by tests that patch the scan internals)."""
    _TABLES.clear()
    _read.cache_clear()
    sign_grid.cache_clear()

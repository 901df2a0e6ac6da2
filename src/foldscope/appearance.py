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
S(n) for every n of a phi-band (phi/2, phi]; _band caches it, read-only,
on the rows' bytes, and s_column reads one n from it.
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

# Entries kept by each memoized band, lemma summary, grid and sample, so
# a long-lived process holds a bounded number of them.  `verify --claim
# all --n-max 64` fills at most 14 per cache (the band cache) and keeps
# its four lemma summaries (0.19 MB) to the end.  At depth 12 (n <= 256)
# the largest entries are that band's S array and lemma summary, 4,096 x
# 128 and 4,096 x 130 int32, about 2 MB each; each is keyed on its rows'
# bytes, 48 KB there.  The kernels make one scan per negation pair, a
# grid's 2^depth rows reaching the kernel as 2^(depth - 2), but every
# cached array keeps a row for every instruction row.
CACHE_SIZE = 32


def band_length(n: int) -> int:
    """Prefix length shared by every scan and target-LCP kernel in the
    phi-band of n: the windows at starts 1..6*phi(n) of length phi(n)."""
    return 7 * phi(n) - 1


@lru_cache(maxsize=CACHE_SIZE)
def _band(data: bytes, width: int, p: int) -> np.ndarray:
    """_batch.band_first_starts for the phi-band p of the int8 rows whose
    bytes are `data`, `width` to a row; cached on that content, read-only."""
    band = _batch.band_first_starts(np.frombuffer(data, np.int8).reshape(-1, width), p)
    band.flags.writeable = False
    return band


def s_column(rows: np.ndarray, n: int) -> np.ndarray:
    """S(n) for every int8 instruction row of `rows` (each of at least
    m + 3 signs, phi(n) = 2^m), read-only, from the cached phi-band."""
    p = phi(n)
    return _band(rows.tobytes(), rows.shape[1], p)[:, n - p // 2 - 1]


def grid_s_values(n: int, depth: int) -> np.ndarray:
    """S(n) for every depth-bit instruction pattern as the read-only numpy
    column s_column reads from the cached phi-band of n.

    Pattern i has f_t = +1 iff bit t of i is set (grid row order), and
    depth must cover every bit the scan for n reads.
    """
    return s_column(_batch.sign_grid(depth), n)


# Trace-only, like verification._sample_prefix_bytes: no library code calls
# them, perfbench/layers.py wraps them by name, ROADMAP item 1 drops both.
def _grid_prefix_bytes(depth: int, width: int, length: int) -> np.ndarray:
    """Sequence prefixes of every pattern of _batch.sign_grid(depth, width)."""
    return _batch.pf_prefix_matrix(_batch.sign_grid(depth, width), length)


def _s_from_prefix(prefix: bytes, n: int) -> int:
    """S(n) of one band prefix, by the scalar scan."""
    return max(_scan_first_starts(prefix, n, 6 * phi(n)).values())


def clear_caches():
    """Drop memoized bands (used by tests that patch the scan internals)."""
    _band.cache_clear()

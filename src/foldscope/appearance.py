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

Both scans read starts 1..2H at the fixed horizon H = 6*phi(n) and share
one stop rule, _check_window: a factor first seen in the confirmation
window (H, 2H] means a corrupted scan, and raises.  The scalar
_scan_first_starts records the first start of each window in a dict; it
serves the per-instance reports and is the oracle the tests hold the
other one to.  Bulk S values (every instruction pattern of a grid or
sample) come from the band kernel _batch.band_first_starts, which sorts
the windows of each prefix once and yields S(n) for every n of a
phi-band (phi/2, phi]; _band caches it per prefix tuple and s_column
reads one n from it.
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
    """Instruction bits the first-occurrence scan for length n can touch.

    The scan reads starts 1..2H at the horizon H = 6*phi(n), so it reads
    the sequence out to 2 * 6*phi(n) + n - 1 positions.
    """
    return required_instruction_count(12 * phi(n) + n)


def _scan_first_starts(prefix: bytes, n: int, limit: int) -> dict:
    """First start (1-based) of each distinct length-n window, starts 1..limit."""
    firsts: dict = {}
    record = firsts.setdefault
    for i in range(limit):
        record(prefix[i:i + n], i + 1)
    return firsts


def _check_window(n: int, s: int) -> None:
    """The stop rule: S(n) read at the horizon H = 6*phi(n) from a scan of
    starts 1..2H is final only if no factor first appears in (H, 2H]."""
    h = 6 * phi(n)
    if s > h:
        raise RuntimeError(f"confirmation window not clean at n={n}: s={s} > {h}")


def _first_starts(f: FoldingInstructions, n: int) -> tuple[dict, int]:
    """(first-starts map, S) from one scan of starts 1..12*phi(n) of P_f,
    with S held to the stop rule.

    Raises InstructionExhausted if a finite instruction set runs out first.
    """
    h = 6 * phi(n)
    firsts = _scan_first_starts(_prefix_bytes(f, 2 * h + n - 1), n, 2 * h)
    s = max(firsts.values())
    _check_window(n, s)
    return firsts, s


def distinct_factors(f: FoldingInstructions, n: int) -> dict:
    """Map from each distinct length-n factor to its first start index.

    Keys are SignWord instances in canonical order (lexicographic with
    -1 before +1); values are 1-based start positions.
    """
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    firsts, _ = _first_starts(f, n)
    items = sorted(firsts.items(), key=lambda kv: kv[0].translate(_SORT_TABLE))
    return {SignWord.from_text(w.decode()): start for w, start in items}


def s_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor starts within P_f[1:k]."""
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    return _first_starts(f, n)[1]


def a_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor lies within P_f[1:k]."""
    return s_value(f, n) + n - 1


def appearance_report(f: FoldingInstructions, n: int) -> AppearanceReport:
    """Full appearance data for (f, n), including the last-appearing factor."""
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
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


@lru_cache(maxsize=None)
def _grid_prefix_bytes(depth: int, width: int, length: int) -> tuple:
    """Sequence prefixes (as bytes) for every pattern of
    _batch.sign_grid(depth, width)."""
    return _batch.prefix_rows(_batch.sign_grid(depth, width), length)


def band_length(n: int) -> int:
    """Prefix length shared by every scan in the phi-band of n."""
    return 13 * phi(n) - 1


@lru_cache(maxsize=None)
def _band(prefixes: tuple, p: int) -> np.ndarray:
    """_batch.band_first_starts of `prefixes` for the phi-band p, cached on
    the prefix tuple itself."""
    return _batch.band_first_starts(prefixes, p)


def s_column(prefixes: tuple, n: int) -> np.ndarray:
    """S(n) for every prefix of `prefixes` (each at least band_length(n)
    signs), read from the cached phi-band under the stop rule."""
    p = phi(n)
    column = _band(prefixes, p)[:, n - p // 2 - 1]
    _check_window(n, int(column.max()))
    return column


def _s_from_prefix(prefix: bytes, n: int) -> int:
    """S(n) of one band prefix."""
    return int(s_column((prefix,), n)[0])


def grid_s_values(n: int, depth: int, width: int = 0) -> tuple:
    """s_value for every depth-bit instruction pattern (grid row order).

    Pattern i has f_t = +1 iff bit (t mod depth) of i is set: when width
    exceeds depth, patterns repeat cyclically so the band prefix is covered
    by the enumerated bits.  The whole phi-band of n is computed once and
    each n is read by s_column.
    """
    # width 0 and width depth name one grid, so they share one cache entry
    prefixes = _grid_prefix_bytes(depth, max(depth, width), band_length(n))
    return tuple(s_column(prefixes, n).tolist())


def clear_caches():
    """Drop memoized grids (used by tests that patch the scan internals)."""
    _grid_prefix_bytes.cache_clear()
    _band.cache_clear()

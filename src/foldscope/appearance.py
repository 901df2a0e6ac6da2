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

There are two scans.  The scalar _scan_first_starts records the first
start of each window in a dict; it serves the per-instance reports and
is the oracle the tests hold the other one to.  Bulk S values (every
instruction pattern of a grid or sample) come from the band kernel
_batch.band_first_starts, which sorts the windows of each prefix once and
yields S(n) for every n of a phi-band (phi/2, phi]; band_column reads one
n from it at the fixed horizon 6*phi(n).
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
    """Two distinct factors tied for the latest first start with n >= 7.

    Distinct factors occupy distinct windows, so their first starts are
    distinct; seeing this means the scan itself is corrupted.
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

    The scan confirms stabilization on a doubled horizon, so it reads the
    sequence out to 2 * 6*phi(n) + n - 1 positions.
    """
    return required_instruction_count(12 * phi(n) + n)


def _scan_first_starts(prefix: bytes, n: int, limit: int) -> dict:
    """First start (1-based) of each distinct length-n window, starts 1..limit."""
    firsts: dict = {}
    record = firsts.setdefault
    for i in range(limit):
        record(prefix[i:i + n], i + 1)
    return firsts


def band_column(band: np.ndarray, n: int) -> np.ndarray:
    """S(n) for every row of a _batch.band_first_starts matrix, read at the
    fixed horizon H = 6*phi(n).

    The band covers starts 1..2H; a factor first seen in the confirmation
    window (H, 2H] would mean a corrupted scan, and raises.
    """
    p = phi(n)
    column = band[:, n - p // 2 - 1]
    h = 6 * p
    dirty = np.flatnonzero(column > h)
    if dirty.size:
        raise RuntimeError(f"confirmation window not clean at n={n}: "
                           f"s={column[dirty[0]]} > {h}")
    return column


def _s_from_prefix(prefix: bytes, n: int) -> int:
    """S(n) of one band prefix, read by band_column."""
    return int(band_column(_batch.band_first_starts([prefix], phi(n)), n)[0])


def _stabilized_first_starts(f: FoldingInstructions, n: int) -> tuple[dict, int]:
    """Scan with the doubling-confirmation horizon policy.

    Starts at horizon 6*phi(n) and doubles until the window (H, 2H]
    introduces no new factor; returns (first-starts map, stabilized H).
    Raises InstructionExhausted if a finite instruction set runs out first.
    """
    h = 6 * phi(n)
    while True:
        prefix = _prefix_bytes(f, 2 * h + n - 1)
        firsts = _scan_first_starts(prefix, n, 2 * h)
        if max(firsts.values()) <= h:
            return firsts, h
        h *= 2


def distinct_factors(f: FoldingInstructions, n: int) -> dict:
    """Map from each distinct length-n factor to its first start index.

    Keys are SignWord instances in canonical order (lexicographic with
    -1 before +1); values are 1-based start positions.
    """
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    firsts, _ = _stabilized_first_starts(f, n)
    items = sorted(firsts.items(), key=lambda kv: kv[0].translate(_SORT_TABLE))
    return {SignWord.from_text(w.decode()): start for w, start in items}


def s_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor starts within P_f[1:k]."""
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    firsts, _ = _stabilized_first_starts(f, n)
    return max(firsts.values())


def a_value(f: FoldingInstructions, n: int) -> int:
    """Least k such that every length-n factor lies within P_f[1:k]."""
    return s_value(f, n) + n - 1


def appearance_report(f: FoldingInstructions, n: int) -> AppearanceReport:
    """Full appearance data for (f, n), including the last-appearing factor."""
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    firsts, horizon = _stabilized_first_starts(f, n)
    s = max(firsts.values())
    winners = [w for w, start in firsts.items() if start == s]
    if len(winners) != 1:
        if n >= 7:
            raise AmbiguousLastFactor(
                f"{len(winners)} factors share the latest first start {s} at n={n}")
        winners.sort(key=lambda w: w.translate(_SORT_TABLE))
    p = phi(n)
    if n >= 3 and s > 6 * p:
        raise RuntimeError(f"scan produced s={s} > 6*phi(n)={6 * p}; scan corrupted")
    return AppearanceReport(
        n=n,
        phi_n=p,
        s_value=s,
        a_value=s + n - 1,
        last_factor=Factor(SignWord.from_text(winners[0].decode()), s),
        factor_count=len(firsts),
        horizon_used=horizon,
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
def _grid_rows(depth: int, width: int) -> np.ndarray:
    """All 2^depth instruction patterns, cyclically extended to `width` bits."""
    return _batch.extend_cyclic(_batch.sign_grid(depth), width)


@lru_cache(maxsize=None)
def _grid_prefix_bytes(depth: int, width: int, length: int) -> tuple:
    """Sequence prefixes (as bytes) for every pattern of _grid_rows."""
    rows = _grid_rows(depth, width)
    return tuple(_batch.sign_matrix_to_bytes(_batch.pf_prefix_matrix(rows, length)))


def band_length(n: int) -> int:
    """Prefix length shared by every scan in the phi-band of n."""
    return 13 * phi(n) - 1


@lru_cache(maxsize=None)
def _grid_band(p: int, depth: int, width: int) -> np.ndarray:
    """_batch.band_first_starts of every grid prefix for the phi-band p."""
    return _batch.band_first_starts(_grid_prefix_bytes(depth, width, band_length(p)), p)


@lru_cache(maxsize=None)
def grid_s_values(n: int, depth: int, width: int = 0) -> tuple:
    """s_value for every depth-bit instruction pattern (grid row order).

    Pattern i has f_t = +1 iff bit t of i is set.  When width exceeds
    depth, patterns are extended cyclically so the scan horizon is always
    covered by the enumerated bits.  The whole phi-band of n is computed
    once and each n is read by band_column, which raises on a dirty
    confirmation window.
    """
    width = max(depth, width)
    length = band_length(n)
    if required_instruction_count(length) > width:
        raise ValueError(
            f"width {width} cannot cover the scan horizon for n={n}; "
            f"need {required_instruction_count(length)} instruction bits")
    return tuple(band_column(_grid_band(phi(n), depth, width), n).tolist())


def clear_caches():
    """Drop memoized grids (used by tests that patch the scan internals)."""
    _grid_rows.cache_clear()
    _grid_prefix_bytes.cache_clear()
    _grid_band.cache_clear()
    grid_s_values.cache_clear()

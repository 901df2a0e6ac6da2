"""Folding-instruction sets and the paper-folding sequences they generate.

An instruction set f = (f_0, f_1, f_2, ...) is a sequence of signs in
{-1, +1}: f_s tells which way the paper is folded at step s.  The value
of the resulting sequence P_f at position k (1-based) is determined by
writing k = 2^s * r with r odd:

    P_f[k] =  f_s   if r = 1 (mod 4)
    P_f[k] = -f_s   if r = 3 (mod 4)

Instruction sets are stored as a finite explicit prefix plus an optional
periodic tail that repeats forever after it.  Requesting f_s beyond a
finite set is a hard error, never a silent default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

SIGNS = (-1, 1)

_SIGN_CHARS = {1: "+", -1: "-"}
_CHAR_SIGNS = {"+": 1, "-": -1}
_SIGN_BYTES = {1: b"+", -1: b"-"}


class InstructionExhausted(LookupError):
    """An instruction f_s beyond the available finite range was requested."""

    def __init__(self, index: int, available: int):
        self.index = index
        self.available = available
        if available:
            msg = (f"instruction f_{index} unavailable: only f_0..f_{available - 1} "
                   f"given and no periodic tail")
        else:
            msg = f"instruction f_{index} unavailable: empty instruction set"
        super().__init__(msg)


def _check_signs(values: Iterable[int], what: str) -> tuple[int, ...]:
    out = tuple(values)
    for v in out:
        if v not in SIGNS:
            raise ValueError(f"{what} entry {v!r} is not -1 or +1")
    return out


@dataclass(frozen=True)
class FoldingInstructions:
    """Instruction signs f_0, f_1, ...: finite prefix + optional periodic tail.

    With no tail only ``len(prefix)`` instructions exist; with a tail the
    set is eventually periodic and every f_s is defined.
    """

    prefix: tuple[int, ...]
    tail_period: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", _check_signs(self.prefix, "prefix"))
        if self.tail_period is not None:
            tail = _check_signs(self.tail_period, "tail_period")
            if not tail:
                raise ValueError("tail_period must be non-empty when given")
            object.__setattr__(self, "tail_period", tail)

    @property
    def is_finite(self) -> bool:
        return self.tail_period is None

    def __str__(self) -> str:
        return format_instructions(self)


@dataclass(frozen=True)
class SignWord:
    """A finite word over {-1, +1}.  Positions are 1-based: w[1] is first."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _check_signs(self.values, "word"))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def at(self, i: int) -> int:
        """Value at 1-based position i."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} outside 1..{len(self.values)}")
        return self.values[i - 1]

    def slice(self, i: int, j: int) -> "SignWord":
        """Sub-word from position i through j, both inclusive and 1-based."""
        if not 1 <= i <= j <= len(self.values):
            raise IndexError(f"slice [{i}:{j}] outside 1..{len(self.values)}")
        return SignWord(self.values[i - 1:j])

    def to_text(self) -> str:
        """Render as '+'/'-' characters."""
        return "".join(_SIGN_CHARS[v] for v in self.values)

    def to_oeis(self) -> str:
        """Render on the {0,1} alphabet: -1 maps to 0 (serialization only)."""
        return "".join("1" if v == 1 else "0" for v in self.values)

    @classmethod
    def from_text(cls, text: str) -> "SignWord":
        try:
            return cls(tuple(map(_CHAR_SIGNS.__getitem__, text)))
        except KeyError as e:
            raise ValueError(f"bad sign character {e.args[0]!r} in word") from None


@dataclass(frozen=True)
class Factor:
    """A factor (contiguous sub-word) together with its earliest start index."""

    word: SignWord
    first_start: int

    def __post_init__(self):
        if len(self.word) == 0:
            raise ValueError("factor word must be non-empty")
        if self.first_start < 1:
            raise ValueError("first_start must be >= 1")


def make_instructions(prefix: Iterable[int],
                      tail_period: Optional[Iterable[int]] = None) -> FoldingInstructions:
    """Build an instruction set from sign lists; validates the alphabet."""
    tail = tuple(tail_period) if tail_period is not None else None
    return FoldingInstructions(tuple(prefix), tail)


def parse_instructions(text: str) -> FoldingInstructions:
    """Parse the '+'/'-' instruction syntax.

    An optional ';' separates the explicit prefix from the periodic tail:
    '+;+' is the regular fold (f_s = +1 forever), '++-;+-' is a 3-sign
    prefix followed by an alternating tail, '+-+-' is a finite 4-sign set.
    """
    text = text.strip()
    if text.count(";") > 1:
        raise ValueError(f"instruction text {text!r}: more than one ';'")
    if ";" in text:
        head, _, tail = text.partition(";")
        if not tail:
            raise ValueError(f"instruction text {text!r}: empty period after ';'")
    else:
        head, tail = text, ""
    if not head and not tail:
        raise ValueError("instruction text is empty")
    for c in head + tail:
        if c not in _CHAR_SIGNS:
            raise ValueError(f"instruction text {text!r}: bad character {c!r}")
    prefix = tuple(_CHAR_SIGNS[c] for c in head)
    period = tuple(_CHAR_SIGNS[c] for c in tail) if tail else None
    return FoldingInstructions(prefix, period)


def format_instructions(f: FoldingInstructions) -> str:
    """Inverse of parse_instructions."""
    head = "".join(_SIGN_CHARS[v] for v in f.prefix)
    if f.tail_period is None:
        return head
    return head + ";" + "".join(_SIGN_CHARS[v] for v in f.tail_period)


def instruction(f: FoldingInstructions, s: int) -> int:
    """The instruction f_s (0-based).  Errors if s is beyond a finite set."""
    if s < 0:
        raise ValueError(f"instruction index {s} is negative")
    if s < len(f.prefix):
        return f.prefix[s]
    if f.tail_period is not None:
        return f.tail_period[(s - len(f.prefix)) % len(f.tail_period)]
    raise InstructionExhausted(s, len(f.prefix))


def negate(f: FoldingInstructions) -> FoldingInstructions:
    """Flip the sign of every instruction."""
    tail = tuple(-v for v in f.tail_period) if f.tail_period is not None else None
    return FoldingInstructions(tuple(-v for v in f.prefix), tail)


def required_instruction_count(length: int) -> int:
    """Number of instructions f_0..f_s needed to evaluate all k <= length.

    Equals floor(log2(length)) + 1: position k = 2^s * r reads f_s, and the
    largest s over k <= length is floor(log2(length)).
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return length.bit_length()


def pf_value(f: FoldingInstructions, k: int) -> int:
    """P_f[k] for k >= 1 via the closed formula (k = 2^s * r, r odd)."""
    if k < 1:
        raise ValueError(f"sequence position must be >= 1, got {k}")
    s = (k & -k).bit_length() - 1
    r = k >> s
    return instruction(f, s) if r & 3 == 1 else -instruction(f, s)


def position_blocks(length: int):
    """The positions 1..length grouped into strided blocks, one pair per f_s.

    Writing k = 2^s * r with r odd, the 0-based indices k - 1 with
    r = 1 (mod 4) form range(2^s - 1, length, 2^(s+2)) and take f_s; those
    with r = 3 (mod 4) form range(3 * 2^s - 1, length, 2^(s+2)) and take
    -f_s.  Yields (s, same, flipped) for s = 0 .. floor(log2(length)), so a
    prefix is filled with about 2*log2(length) slice assignments.
    """
    for s in range(required_instruction_count(length)):
        step = 4 << s
        yield s, range((1 << s) - 1, length, step), range((3 << s) - 1, length, step)


def pf_prefix_bytes(f: FoldingInstructions, length: int) -> bytes:
    """P_f[1:length] rendered as b'+'/b'-' (the form the scans consume)."""
    out = bytearray(length)
    for s, same, flipped in position_blocks(length):
        v = instruction(f, s)
        out[same.start::same.step] = _SIGN_BYTES[v] * len(same)
        out[flipped.start::flipped.step] = _SIGN_BYTES[-v] * len(flipped)
    return bytes(out)


def pf_prefix(f: FoldingInstructions, length: int) -> SignWord:
    """The prefix P_f[1:length] as a SignWord."""
    return SignWord.from_text(pf_prefix_bytes(f, length).decode())

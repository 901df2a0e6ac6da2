"""Folding-instruction sets and the paper-folding sequences they generate.

An instruction set f = (f_0, f_1, f_2, ...) is a sequence of signs in
{-1, +1}: f_s tells which way the paper is folded at step s.  The value
of the resulting sequence P_f at position k (1-based) is determined by
writing k = 2^s * r with r odd:

    P_f[k] =  f_s   if r = 1 (mod 4)
    P_f[k] = -f_s   if r = 3 (mod 4)

That formula is held to the folding process itself, the unfolding
recursion

    w_0 = f_0,   w_(j+1) = w_j, f_(j+1), -reverse(w_j),

whose word w_j of 2^(j+1) - 1 signs is P_f[1..2^(j+1) - 1].  This is the
convention that puts f_0 at position 1 and each f_j at position 2^j, the
centre of w_j ("Folds!", Dekking, Mendes France & van der Poorten,
1982); papers differ in where f_0 sits, and with this one the regular
fold (every f_s = +1) is OEIS A014577 read as +-1.

Instruction sets are stored as a finite explicit prefix plus an optional
periodic tail that repeats forever after it.  Requesting f_s beyond a
finite set is a hard error, never a silent default.

A SignWord keeps the '+'/'-' text it was parsed from, so a prefix built
from text renders back to text without a pass over its signs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

SIGNS = (-1, 1)
_SIGN_SET = frozenset(SIGNS)

_SIGN_CHARS = {1: "+", -1: "-"}
_CHAR_SIGNS = {"+": 1, "-": -1}
_SIGN_BYTES = {1: b"+", -1: b"-"}
# '+' -> 1 and '-' -> -1 as signed bytes, for array("b")
_TEXT_TO_SIGN_BYTES = bytes.maketrans(b"+-", b"\x01\xff")
_TEXT_TO_OEIS = str.maketrans("+-", "10")


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
    try:
        if _SIGN_SET.issuperset(out):
            return out
    except TypeError:  # an unhashable entry; the loop below names it
        pass
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

    @cached_property
    def _text(self) -> str:
        # not a dataclass field, so eq, hash and repr read `values` alone
        return "".join(map(_SIGN_CHARS.__getitem__, self.values))

    def to_text(self) -> str:
        """Render as '+'/'-' characters."""
        return self._text

    def to_oeis(self) -> str:
        """Render on the {0,1} alphabet: -1 maps to 0 (serialization only)."""
        return self._text.translate(_TEXT_TO_OEIS)

    @classmethod
    def from_text(cls, text: str) -> "SignWord":
        """Parse '+'/'-' text; the word keeps `text` as its rendering."""
        raw = text.encode("ascii", "replace")  # a non-ASCII character becomes b"?"
        if raw.translate(None, b"+-"):
            bad = text.replace("+", "").replace("-", "")[0]
            raise ValueError(f"bad sign character {bad!r} in word")
        # every character is a sign, so the values need no second check
        # in __post_init__; the word is filled as __init__ would fill it
        word = object.__new__(cls)
        object.__setattr__(word, "values", tuple(array("b", raw.translate(_TEXT_TO_SIGN_BYTES))))
        object.__setattr__(word, "_text", text)
        return word


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
    if length < 1:  # before bytearray(length) sizes the buffer
        raise ValueError(f"length must be >= 1, got {length}")
    out = bytearray(length)
    for s, same, flipped in position_blocks(length):
        v = instruction(f, s)
        out[same.start::same.step] = _SIGN_BYTES[v] * len(same)
        out[flipped.start::flipped.step] = _SIGN_BYTES[-v] * len(flipped)
    return bytes(out)


def pf_prefix(f: FoldingInstructions, length: int) -> SignWord:
    """The prefix P_f[1:length] as a SignWord."""
    return SignWord.from_text(pf_prefix_bytes(f, length).decode())

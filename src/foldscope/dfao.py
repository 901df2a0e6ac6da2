"""A parallel-track automaton with output that evaluates P_f[k].

The machine reads pairs (instruction sign, base-2 digit of k) least
significant digit first.  It skips the trailing zeros of k, latches the
instruction sign paired with the first 1-digit (that position is s, the
exponent of 2 in k), and the very next digit fixes the odd part r mod 4,
which decides the output.  Five states suffice: a seeking state, two
latched states, and two absorbing decided states.  Output is defined only
on the decided states; landing anywhere else means the input tracks were
too short for k and is reported as an error, never defaulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import _batch
from .folding import FoldingInstructions, instruction

# canonical symbol order used by every export and table
ALPHABET = ((-1, 0), (-1, 1), (1, 0), (1, 1))

_OUT_CHARS = {1: "+", -1: "-", None: "_"}
_CHAR_OUTS = {"+": 1, "-": -1, "_": None}


class OutputUndefined(ValueError):
    """The run ended in a state with no output: the tracks were too short.

    The digit track must contain the full expansion of k plus the digit
    after the lowest 1 (more than log2(k) pairs overall).
    """


@dataclass(frozen=True)
class ParallelDFAO:
    """Deterministic automaton over (sign, bit) pairs with +-1 outputs.

    `transitions` is total over state_count x ALPHABET; `output[q]` is
    +-1 or None (undefined).  Instances are immutable; construction
    validates totality and ranges.  Machines built or parsed here have
    every state reachable (see unreachable_states); mutation-testing
    copies from replace_transition may not.
    """

    state_count: int
    start_state: int
    transitions: Mapping[tuple[int, tuple[int, int]], int]
    output: tuple[Optional[int], ...]
    state_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = self.state_count
        if n < 1:
            raise ValueError("state_count must be >= 1")
        if not 0 <= self.start_state < n:
            raise ValueError(f"start_state {self.start_state} outside 0..{n - 1}")
        if len(self.output) != n:
            raise ValueError("output must list one value per state")
        for v in self.output:
            if v not in (-1, 1, None):
                raise ValueError(f"output value {v!r} not in {{-1, +1, undefined}}")
        for q in range(n):
            for sym in ALPHABET:
                if (q, sym) not in self.transitions:
                    raise ValueError(f"transition missing for state {q}, symbol {sym}")
                tgt = self.transitions[(q, sym)]
                if not 0 <= tgt < n:
                    raise ValueError(f"transition target {tgt} outside 0..{n - 1}")
        if len(self.transitions) != n * len(ALPHABET):
            raise ValueError("transitions contain entries outside the state space")

    def step(self, state: int, sign: int, bit: int) -> int:
        return self.transitions[(state, (sign, bit))]


def unreachable_states(d: ParallelDFAO) -> list[int]:
    """States not reachable from the start state.

    Empty for every machine this module builds or parses; mutation helpers
    used by the verification harness may deliberately orphan a state.
    """
    seen = {d.start_state}
    frontier = [d.start_state]
    while frontier:
        q = frontier.pop()
        for sym in ALPHABET:
            t = d.transitions[(q, sym)]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return sorted(set(range(d.state_count)) - seen)


@dataclass(frozen=True)
class TrackedInput:
    """Parallel input tracks: lsd-first digits of k and instruction signs."""

    digits: tuple[int, ...]
    instr_track: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != len(self.instr_track):
            raise ValueError("digit and instruction tracks must have equal length")
        if not self.digits:
            raise ValueError("input tracks must be non-empty")
        for d in self.digits:
            if d not in (0, 1):
                raise ValueError(f"digit {d!r} not a bit")
        for v in self.instr_track:
            if v not in (-1, 1):
                raise ValueError(f"instruction {v!r} not a sign")


def lsd2_digits(k: int, width: int) -> tuple[int, ...]:
    """Base-2 digits of k, least significant first, zero-padded to width."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if k >> width:
        raise ValueError(f"width {width} too small for the expansion of {k}")
    return tuple((k >> i) & 1 for i in range(width))


def tracked_input(f: FoldingInstructions, k: int, width: Optional[int] = None) -> TrackedInput:
    """Tracks for evaluating P_f[k]; default width is the decidable minimum."""
    if width is None:
        width = _batch.decidable_width(k)
    return TrackedInput(lsd2_digits(k, width),
                        tuple(instruction(f, s) for s in range(width)))


def build_pf_evaluator() -> ParallelDFAO:
    """The 5-state evaluator for P_f[k].

    State 0 seeks the first 1-digit, consuming (sign, 0) pairs.  On the
    first 1 it latches the paired instruction sign (states 1/2).  The next
    digit d fixes r mod 4 for the odd part r of k: d = 0 means r = 1
    (mod 4), output = latched sign; d = 1 means r = 3 (mod 4), output =
    flipped sign.  States 3/4 hold the decided value and absorb padding.
    """
    tr = {}
    for sign in (-1, 1):
        tr[(0, (sign, 0))] = 0
        tr[(0, (sign, 1))] = 1 if sign == 1 else 2
        tr[(1, (sign, 0))] = 3
        tr[(1, (sign, 1))] = 4
        tr[(2, (sign, 0))] = 4
        tr[(2, (sign, 1))] = 3
        for q in (3, 4):
            for bit in (0, 1):
                tr[(q, (sign, bit))] = q
    return ParallelDFAO(
        state_count=5,
        start_state=0,
        transitions=tr,
        output=(None, None, None, 1, -1),
        state_labels=("seek", "latch_pos", "latch_neg", "emit_pos", "emit_neg"),
    )


def run_dfao(d: ParallelDFAO, inp: TrackedInput) -> int:
    """Consume the tracks and return the final state's output.

    Raises OutputUndefined if the final state has no output, which is
    exactly the too-few-instructions contract violation.
    """
    state = d.start_state
    for sign, bit in zip(inp.instr_track, inp.digits):
        state = d.transitions[(state, (sign, bit))]
    value = d.output[state]
    if value is None:
        label = d.state_labels[state] if d.state_labels else str(state)
        raise OutputUndefined(
            f"run ended in state {label!r} with undefined output; "
            f"the {len(inp.digits)}-pair input is too short to decide the value")
    return value


def replace_transition(d: ParallelDFAO, state: int, symbol: tuple[int, int],
                       target: int) -> ParallelDFAO:
    """A copy of d with one transition redirected (mutation-testing helper)."""
    if symbol not in ALPHABET:
        raise ValueError(f"symbol {symbol!r} not in the alphabet")
    tr = dict(d.transitions)
    if (state, symbol) not in tr:
        raise ValueError(f"no transition at state {state}, symbol {symbol}")
    tr[(state, symbol)] = target
    return ParallelDFAO(d.state_count, d.start_state, tr, d.output, d.state_labels)


def export_dot(d: ParallelDFAO) -> str:
    """Graphviz DOT text for the automaton; byte-stable across runs."""
    def label(q):
        name = d.state_labels[q] if d.state_labels else f"q{q}"
        return f"{name}\\nout={_OUT_CHARS[d.output[q]]}"

    lines = ["digraph dfao {", "  rankdir=LR;", "  __start [shape=point];",
             f"  __start -> {d.start_state};"]
    for q in range(d.state_count):
        shape = "doublecircle" if d.output[q] is not None else "circle"
        lines.append(f'  {q} [shape={shape} label="{label(q)}"];')
    for q in range(d.state_count):
        for sign, bit in ALPHABET:
            tgt = d.transitions[(q, (sign, bit))]
            sym = f"({_OUT_CHARS[sign]},{bit})"
            lines.append(f'  {q} -> {tgt} [label="{sym}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_table(d: ParallelDFAO) -> str:
    """Plain-text transition table, one line per state, '# dfao-v1' format."""
    lines = ["# dfao-v1",
             "alphabet " + " ".join(f"({_OUT_CHARS[s]},{b})" for s, b in ALPHABET),
             f"start {d.start_state}"]
    for q in range(d.state_count):
        cells = " ".join(
            f"({_OUT_CHARS[s]},{b})->{d.transitions[(q, (s, b))]}" for s, b in ALPHABET)
        lines.append(f"{q} {_OUT_CHARS[d.output[q]]} : {cells}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> ParallelDFAO:
    """Parse export_table output back into an automaton.

    Raises ValueError naming the 1-based offending line on corrupt input.
    """
    lines = text.splitlines()

    def fail(i, why):
        raise ValueError(f"table line {i + 1}: {why}")

    if not lines or lines[0].strip() != "# dfao-v1":
        fail(0, "missing '# dfao-v1' header")
    if len(lines) < 4:
        fail(len(lines) - 1, "truncated table")
    expect_alpha = "alphabet " + " ".join(f"({_OUT_CHARS[s]},{b})" for s, b in ALPHABET)
    if lines[1].strip() != expect_alpha:
        fail(1, f"expected {expect_alpha!r}")
    parts = lines[2].split()
    if len(parts) != 2 or parts[0] != "start" or not parts[1].isdigit():
        fail(2, "expected 'start <id>'")
    start = int(parts[1])

    transitions = {}
    outputs = []
    for lineno, ln in enumerate(lines[3:], start=3):
        if not ln.strip():
            continue
        i = len(outputs)
        fields = ln.split()
        if len(fields) != 3 + len(ALPHABET) or fields[2] != ":":
            fail(lineno, "expected '<id> <out> : <4 transitions>'")
        if not fields[0].isdigit() or int(fields[0]) != i:
            fail(lineno, f"expected state id {i}, got {fields[0]!r}")
        if fields[1] not in _CHAR_OUTS:
            fail(lineno, f"bad output symbol {fields[1]!r}")
        outputs.append(_CHAR_OUTS[fields[1]])
        for cell, sym in zip(fields[3:], ALPHABET):
            want = f"({_OUT_CHARS[sym[0]]},{sym[1]})->"
            if not cell.startswith(want) or not cell[len(want):].isdigit():
                fail(lineno, f"bad transition cell {cell!r}")
            transitions[(i, sym)] = int(cell[len(want):])
    if not outputs:
        fail(3, "no state lines")
    try:
        return ParallelDFAO(len(outputs), start, transitions, tuple(outputs))
    except ValueError as e:
        raise ValueError(f"table is inconsistent: {e}") from None

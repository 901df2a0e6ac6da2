"""Spans and counters recorded around the library's module boundaries.

The tracer replaces module attributes (such as
``appearance._scan_first_starts``) with wrappers for the length of a
`with` block and restores them afterwards.  The library calls these
functions through module globals or module attributes, so the wrappers
see every call without any change to the library.  Each wrapper records a
span (name, start, end, parent, request) on the work clock and may add
exact counts computed from the call's arguments or result.  Spans are
kept in memory; `write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # -1 for a root span
    request: int
    name: str
    start: float
    end: float


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of it that its
    child spans cover (children clipped to the parent, overlaps merged)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans) -> dict:
    """Summed self time of the spans of each name."""
    per_span = self_times(spans)
    totals: dict = defaultdict(float)
    for s in spans:
        totals[s.name] += per_span[s.span_id]
    return dict(totals)


class Tracer:
    """Records spans and counts; `wrap` installs a wrapper until exit."""

    def __init__(self, now):
        self.now = now
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list = []

    def reset(self) -> None:
        """Start a new unit; span ids keep counting, so they stay unique."""
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        count(args, kwargs, result, counts) adds exact counts for the call.
        For an lru_cache function the wrapper also counts the call's hits
        and misses from cache_info(), and its cache controls stay
        reachable through the wrapper.
        """
        original = getattr(module, attr)
        cache_info = getattr(original, "cache_info", None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            before = cache_info() if cache_info is not None else None
            start = self.now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = self.now()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.request, name, start, end))
            counts = self.counts
            counts[name + ".calls"] += 1
            if before is not None:
                after = cache_info()
                counts[name + ".hits"] += after.hits - before.hits
                counts[name + ".misses"] += after.misses - before.misses
            if count is not None:
                count(args, kwargs, result, counts)
            return result

        for control in ("cache_info", "cache_clear"):
            if hasattr(original, control):
                setattr(wrapper, control, getattr(original, control))
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def write_spans(path, spans) -> None:
    """One JSON array per line: [id, parent, request, name, start, end]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.span_id, s.parent, s.request, s.name,
                                 round(s.start, 9), round(s.end, 9)]) + "\n")

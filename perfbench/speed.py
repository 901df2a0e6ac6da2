"""A work clock that discounts the machine's changing speed.

On a shared host the same Python code runs up to twice as slow for
seconds at a time, because other tenants contend for the core.  Process
CPU time slows with it, so it does not help.  What does help is timing
fixed reference kernels alongside the work: their durations move with the
slowdown, so scaling each measured interval by

    mean over the kernels of (kernel's nominal duration / its duration now)

gives the interval's length at a fixed, uncontended speed.  The kernels
cover the kinds of work the library does (dict-filling scans over byte
windows, numpy table steps over narrow and wide state vectors, and
interpreter arithmetic), and every workload is scaled by all of them.
The kernels are frozen here and share no code with the library, so a
change to the library never changes the scale.

A probe runs from a SIGALRM handler every PROBE_INTERVAL_S, so it also
samples the speed in the middle of long library calls; the handler runs
between bytecodes, or when a native call returns.  The time spent in
probes is taken out of the work clock, so no measured interval contains
it.  No thread or process is started: the interval timer belongs to this
process and is disarmed when the clock's `with` block ends.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# speed samples taken this long before an interval still describe it
LOOKBACK_S = 0.3

_PREFIX = bytes(b"+-"[(i * i * 7 + i) % 5 % 2] for i in range(1663))
_STEP = np.arange(20, dtype=np.uint8).reshape(5, 2, 2) % 5
_NARROW = (np.arange(128) % 2).astype(np.uint8)
_WIDE = (np.arange(4096) % 2).astype(np.uint8)


def _scan() -> None:
    """First starts of the length-48 windows of a fixed sign string."""
    firsts: dict = {}
    record = firsts.setdefault
    for i in range(1500):
        record(_PREFIX[i:i + 48], i + 1)


def _gather() -> None:
    """Python-driven table steps over 128 parallel states."""
    state = np.zeros(128, dtype=np.uint8)
    for i in range(150):
        state = _STEP[state, _NARROW, i & 1]


def _wide_gather() -> None:
    """Table steps over 4096 parallel states."""
    state = np.zeros(4096, dtype=np.uint8)
    for i in range(20):
        state = _STEP[state, _WIDE, i & 1]


def _interpreter() -> None:
    """Integer arithmetic in the interpreter loop."""
    x = 0
    for i in range(6000):
        x += i * i


# kernel -> (function, nominal duration in seconds).  The nominal values
# are the kernels' median durations on the 2-core 2.1 GHz Xeon the
# benchmark was defined on; they only fix the scale of reported times.
KERNELS = {
    "scan": (_scan, 0.00040),
    "gather": (_gather, 0.00065),
    "wide_gather": (_wide_gather, 0.00070),
    "interpreter": (_interpreter, 0.00040),
}


def sample_speed() -> float:
    """Run each kernel once; mean of nominal / measured duration."""
    total = 0.0
    for fn, nominal in KERNELS.values():
        start = time.perf_counter()
        fn()
        total += nominal / (time.perf_counter() - start)
    return total / len(KERNELS)


class SpeedClock:
    """Work clock with speed samples; use as a context manager.

    `now()` reads perf_counter minus the time spent in probes.  `scaled(a,
    b)` converts a work-clock interval to seconds at reference speed, using
    the speed samples taken during it and just before it.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self._probe_total = 0.0
        self._count = 0
        self._busy = False
        self._times: list[float] = []
        self._speeds: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        sample_speed()  # warm the kernels up, unrecorded
        self._take_probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._take_probe()

    def _take_probe(self) -> None:
        self._busy = True
        try:
            at = time.perf_counter()
            value = sample_speed()
            self._times.append(at - self._probe_total)
            self._speeds.append(value)
            self._probe_total += time.perf_counter() - at
            self._count += 1
        finally:
            self._busy = False

    def now(self) -> float:
        """Work-clock reading; retried if a probe ran between its two reads."""
        while True:
            count = self._count
            value = time.perf_counter() - self._probe_total
            if count == self._count:
                return value

    @property
    def probe_count(self) -> int:
        return self._count

    def speed(self, a: float, b: float) -> float:
        """Mean speed (reference = 1.0) over the samples covering [a, b]."""
        lo = bisect.bisect_left(self._times, a - LOOKBACK_S)
        hi = bisect.bisect_right(self._times, b)
        if lo >= hi:
            lo = max(0, hi - 1)
        window = self._speeds[lo:hi]
        return sum(window) / len(window)

    def scaled(self, a: float, b: float) -> float:
        """Seconds the work-clock interval [a, b] takes at reference speed."""
        return (b - a) * self.speed(a, b)

"""Host-speed sampling, so that end-to-end times read as if at full host speed.

On a shared host the same interpreter-bound work can take 1.7 times as long
from one second to the next, and twice as long from one millisecond to the
next, while CPU time tracks wall time: the slow spells come from the host and
not from scheduling.  ``HostSampler`` times a fixed pure-Python probe every
``GAP_S`` seconds from an interval-timer signal, and the harness also probes
right before every item, so a short item has a probe on each side of it.  All
probes run on the main thread, on the same CPU as the measured work.  A time
measured over an interval loses the probe time inside it and is scaled by
``FULL_SPEED_S`` over the probe times sampled in it and just before and after
it: the result is the time the interval would have taken at the speed at which
the probe takes ``FULL_SPEED_S``.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

GAP_S = 0.1  # seconds between timer probes
FULL_SPEED_S = 0.22e-3  # probe time that counts as full host speed
PROBE_BASE = 3**40


def host_probe() -> float:
    """Seconds for a fixed loop of big-integer and tuple-keyed dict work, best of three.

    The work is of the kind the library does.  Over five-second windows the
    library's time over this probe's time varied by 3 to 4% where the raw
    times varied by 17 to 19%; a loop of small-integer work tracked it less
    closely, and random reads of a large dict far less.  Taking the best run
    leaves out an interrupt.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(600):
            key = (i % 37, i % 11)
            table[key] = table.get(key, 0) + PROBE_BASE * i
        best = min(best, perf_counter() - t0)
    return best


class HostSampler:
    """Probes the host every GAP_S seconds between ``with`` bounds, and on ``sample``.

    The timer probes run from a SIGALRM handler, which Python runs on the main
    thread between bytecodes, so they interrupt the measured work rather than
    compete with it from another thread; ``scaled`` takes the probe time out
    of an interval before scaling it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:  # a probe that the timer interrupted would time the nested one too
            self.sample()

    def sample(self) -> None:
        self._busy = True
        try:
            start = perf_counter()
            probe = host_probe()
            self.starts.append(start)
            self.ends.append(perf_counter())
            self.probes.append(probe)
        finally:
            self._busy = False

    def scaled(self, a: float, b: float) -> float:
        """The interval [a, b] without probe time, at full host speed.

        The speed is the mean over the probes that started inside the interval
        and the probes just before and just after it.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        busy = 0.0
        for i in range(max(lo - 1, 0), hi):
            busy += max(0.0, min(b, self.ends[i]) - max(a, self.starts[i]))
        around = self.probes[max(lo - 1, 0) : hi + 1]
        speed = sum(FULL_SPEED_S / p for p in around) / len(around)
        return (b - a - busy) * speed

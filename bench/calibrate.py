"""Host-speed calibration for the untraced run.

This host's CPU speed swings by up to 1.8x with load from neighbouring
machines, over stretches of seconds to minutes, so two runs of the same
code can differ by a third in wall time.  While a run measures, a timer
signal interrupts it every ``INTERVAL_S`` and runs a burst: a fixed piece
of interpreter-bound permutation arithmetic written here, which does not
touch flatlyap.  The bursts' durations during a stretch of the run, a
set-up or a pass, say how fast the host ran in it; the times measured in
that stretch are scaled to a host on which one burst takes
``REFERENCE_S`` (see ``Calibrator.scale``).  The time spent in bursts is
taken out of every measured interval by ``elapsed``.

The burst is the benchmark's own code, so a change to flatlyap cannot
speed it up or slow it down: the scale only follows the host.  README.md
gives the measurements behind the choice of burst and of the mean.
"""
from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left
from time import perf_counter

#: seconds between the end of one burst and the start of the next
INTERVAL_S = 0.02
#: fewest bursts a stretch of the run is scaled by on its own
MIN_BURSTS = 9
#: seconds one burst takes on a 2.1 GHz Xeon vCPU with Python 3.11 in a
#: quiet stretch, while a workload runs between the bursts
REFERENCE_S = 0.0012

_DEGREE = 10


def interpreter_burst():
    """T/S steps from fixed pairs, with the commutator's cycle type and a
    transitivity search after each step."""
    rng = random.Random(0)
    pairs = [tuple(tuple(rng.sample(range(_DEGREE), _DEGREE)) for _ in "ru") for _ in range(8)]

    def burst() -> int:
        found = 0
        for r, u in pairs:
            for step in range(24):
                rinv = [0] * _DEGREE
                for i, x in enumerate(r):
                    rinv[x] = i
                r, u = (r, tuple(u[x] for x in rinv)) if step % 3 else (tuple(u), r)
                c = [u[r[x]] for x in range(_DEGREE)]
                seen = set()
                for start in range(_DEGREE):
                    n = 0
                    while start not in seen:
                        seen.add(start)
                        start = c[start]
                        n += 1
                    found += n > 1
                stack, reach = [0], {0}
                while stack:
                    x = stack.pop()
                    for y in (r[x], u[x]):
                        if y not in reach:
                            reach.add(y)
                            stack.append(y)
                found += len(reach)
        return found

    return burst


class Calibrator:
    """Runs the burst from SIGALRM while active; see the module doc."""

    def __init__(self):
        self.reference = REFERENCE_S
        self.burst = interpreter_burst()
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.burst()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        global _active
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        _active = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None

    def inside(self, t0: float, t1: float) -> float:
        """Time spent in bursts that started within [t0, t1]."""
        return sum(self.durations[bisect_left(self.starts, t0):bisect_left(self.starts, t1)])

    def scale(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Factor from seconds measured within [t0, t1] to reference
        seconds: from the bursts that started in that stretch, or from
        all bursts if fewer than ``MIN_BURSTS`` did.

        The bursts sample the host's speed at even steps of time, so the
        mean of ``reference / duration`` over them is the share of the
        stretch's work a reference host would need per second; hence the
        harmonic mean of the durations, not their median, which misreads
        a stretch that is part fast and part slow.
        """
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        durations = self.durations[lo:hi] if hi - lo >= MIN_BURSTS else self.durations
        return self.reference / statistics.harmonic_mean(durations)


_active: Calibrator | None = None


def elapsed(t0: float) -> float:
    """Seconds since ``t0`` (a perf_counter reading), bursts left out."""
    t1 = perf_counter()
    return t1 - t0 - (_active.inside(t0, t1) if _active is not None else 0.0)

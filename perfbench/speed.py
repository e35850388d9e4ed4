"""Rescale wall times to a reference box speed.

The shared boxes this benchmark runs on drift in speed within seconds: over
one minute, one fixed solve took between 0.75x and 1.25x its mean time
(coefficient of variation 0.25), in process CPU time as much as in wall
time.  That drift is not the program's doing, and it spread raw wall-time
latencies by 20-40 % (quartile distance over median) between runs.  So the
benchmark times a short fixed spin after every timed call, and every
``INTERVAL_S`` inside one from a SIGALRM handler, and rescales each call's
wall time by (``SPIN_REF_S`` over the median spin time during and within
``WINDOW_S`` of the call) to the power ``EXPONENT``.  The handler's own time
is taken out of the call's.  Without the spins inside calls, a 15-second
solve had only the two spins around it to go by.

The spin swings more than the program when the box speeds up or slows down,
most of all on the long, memory-heavy point-large solves, so the rescaling
is damped by ``EXPONENT``.  Over three sets of ten runs of each workload,
the worst spread of an end-to-end time (quartile distance over median) was
0.44 raw, 0.20 with the full rescaling, 0.17 at exponent 0.9, 0.14 at 0.8
and 0.14 at 0.7.

The spin does interpreter work like the solver's (tuple keys, dict updates,
list appends): in that minute the solve time over the spin time varied with
a coefficient of 0.055, against 0.097 for a pure integer loop.  It runs with
the garbage collector off and on a small private dict, so the program's own
heap cannot slow it down: a slower program still reads slower.  Raw wall
times are kept alongside in the results file.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

SPIN_N = 1200
SPIN_REF_S = 0.00035     # the spin's time on the reference box
EXPONENT = 0.8
INTERVAL_S = 0.025       # spin period inside a timed call
WINDOW_S = 0.1           # spins this close to a call also count for it


def spin() -> float:
    """Seconds taken by a fixed piece of interpreter work."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        recent: list = []
        for i in range(SPIN_N):
            key = (i & 63, i >> 6)
            seen[key] = seen.get(key, 0) + 1
            recent.append(key)
            if len(recent) > 64:
                recent.clear()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedTrack:
    """Spin samples over one pass, and the rescaling they give each call.

    Use as a context manager: it owns the SIGALRM handler while open.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spins: list[float] = []
        self._armed = False
        self._inside = 0.0

    def sample(self) -> float:
        took = spin()
        self.times.append(time.perf_counter() - took / 2)
        self.spins.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._inside += self.sample()

    def __enter__(self) -> "SpeedTrack":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn, *args):
        """Run fn(*args) with spins inside it and one after it.

        Returns (result, error, t0, t1, net), where net is the call's wall
        seconds without the spins run inside it.
        """
        res = err = None
        self._inside = 0.0
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            res = fn(*args)
        except Exception as exc:  # the caller counts it as a failed call
            err = exc
        t1 = time.perf_counter()
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        net = (t1 - t0) - self._inside
        self.sample()
        return res, err, t0, t1, net

    def factor(self, t0: float, t1: float) -> float:
        """Reference over observed speed for a call that ran from t0 to t1."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.spins[lo:hi]
        if not near:
            raise ValueError("no spin sample near the call")
        return (SPIN_REF_S / statistics.median(near)) ** EXPONENT

"""Timing normalised to a reference burst measured alongside the calls.

On a machine whose cores are shared, the same call can take anywhere from
1x to 2x its time from one second to the next, and interpreted code and
numpy kernels slow down together.  Raw wall times then spread by 25-45%
between runs.  This module removes that common factor.  While a
``ReferenceClock`` is active, a SIGALRM handler runs a reference burst every
``PERIOD_S`` seconds.  The burst has three fixed parts, timed separately:

- an interpreted integer loop plus ``sorted()`` of a list of floats;
- many numpy calls on 15-point arrays, as the quadrature makes;
- one large uniform fill, as the Monte Carlo batches make.

The local speed around a call is the geometric mean of the three parts'
mean times from ``PERIOD_S`` before the call to ``PERIOD_S`` after it.  A
timed call's seconds are its wall time, less the bursts that ran inside it,
times ``NOMINAL_S`` over that local speed.  The result reads as the call's
time at the speed where the geometric mean of the parts is ``NOMINAL_S``.
"""

import bisect
import math
import random
import signal
import time

import numpy as np

PERIOD_S = 0.1
BRACKET_BURSTS = 10  # bursts on each side of a call that pauses sampling
NOMINAL_S = 1.0e-3  # geometric-mean part time at the reference speed

_SORT_DATA = [random.Random(0).random() for _ in range(15_000)]
_SMALL = np.random.default_rng(0).random((15, 3))
_CENTRE = np.zeros(3)
_FILL = np.random.default_rng(0)


def reference_burst() -> tuple[float, float, float]:
    """Seconds taken by each of the burst's three parts."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    sorted(_SORT_DATA)
    t1 = time.perf_counter()
    for _ in range(120):
        np.sqrt(np.sum((_SMALL - _CENTRE) ** 2, axis=-1))
    t2 = time.perf_counter()
    _FILL.random(200_000)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def local_speed(parts: list[tuple[float, float, float]]) -> float:
    """Geometric mean over the parts of their mean times."""
    n = len(parts)
    return math.prod(sum(p[k] for p in parts) / n for k in range(3)) ** (1.0 / 3.0)


def bracket(fn, *args):
    """(result, normalised seconds) of fn, with bursts just before and after.

    For calls that run in another process, where no signal can sample
    the reference while they run.
    """
    before = [reference_burst() for _ in range(BRACKET_BURSTS)]
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    after = [reference_burst() for _ in range(BRACKET_BURSTS)]
    return result, seconds * NOMINAL_S / local_speed(before + after)


class ReferenceClock:
    """Samples the reference in the background and normalises call times.

    Use as a context manager in the main thread.  ``timed`` returns a
    call's raw seconds with the bursts taken out; ``normalise`` converts an
    interval recorded by ``timed`` once the samples after it exist.  With
    no samples (clock never entered) ``normalise`` returns raw seconds.
    """

    def __init__(self):
        self._starts: list[float] = []
        self._parts: list[tuple[float, float, float]] = []
        self._handler_s: list[float] = []
        self._previous = None
        self._active = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._active = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False
        return False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        parts = reference_burst()
        self._parts.append(parts)
        self._handler_s.append(time.perf_counter() - t0)
        self._starts.append(t0)

    def timed(self, fn, *args, threaded: bool = False, **kwargs):
        """(result, t0, t1, seconds): wall time of fn less the bursts inside it.

        A ``threaded`` call keeps the worker threads it starts busy on every
        core, and a burst run beside them mostly measures waiting for the
        interpreter lock.  Sampling pauses for such a call; bursts run just
        before and just after it instead.
        """
        paused = threaded and self._active
        if paused:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._bracket()
        n0 = len(self._handler_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            inside = sum(self._handler_s[n0:])
            if paused:
                self._bracket()
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return result, t0, t1, t1 - t0 - inside

    def _bracket(self):
        for _ in range(BRACKET_BURSTS):
            self._sample(signal.SIGALRM, None)

    def normalise(self, t0: float, t1: float, seconds: float) -> float:
        """Seconds at the reference speed, from the bursts within a period of [t0, t1]."""
        if not self._starts:
            return seconds
        lo = bisect.bisect_left(self._starts, t0 - PERIOD_S)
        hi = bisect.bisect_right(self._starts, t1 + PERIOD_S)
        if hi <= lo:  # no burst that close: take the nearest one
            lo = min(range(len(self._starts)), key=lambda i: abs(self._starts[i] - t0))
            hi = lo + 1
        return seconds * NOMINAL_S / local_speed(self._parts[lo:hi])

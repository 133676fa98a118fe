"""Host-speed calibration: a fixed reference computation timed beside the workload.

The reference host's speed drifts: a fixed computation takes from 1.0 to 1.8
times its fastest time, in regimes that last from seconds to minutes, as other
tenants load the physical cores under its two vCPUs.  Repetitions of identical
work drift with it, so wall medians of runs minutes apart differ by more than
any useful bound.  Each run therefore times a short fixed unit of work while
the repetition runs, and scales the repetition to the reference speed:

    scaled = (wall - time in the unit) * REFERENCE_UNIT_S / median(unit times)

``Sampler`` runs the unit every ``PERIOD_S`` seconds from a SIGALRM handler,
between two bytecodes of the main thread, so the samples come from the
moments the repetition runs.  Units run back to back outside a repetition
find their data in the caches, unlike units sampled inside one, and tracked
the repetitions' times less well, so a repetition is scaled by its own
samples only; one too short for three samples gets three more units right
after it.  The unit does not call ``locindex``, so a change to the program
leaves it unchanged and a program that gets k times faster reads k times
faster.  It fits kernel-weighted lines at n = 52, where interpreter overhead
dominates, and at n = 4000, where numpy arithmetic over the rows dominates:
the two regimes the workloads spend their time in.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The unit's time at the reference speed.  On the reference host (2 vCPUs,
# Python 3.11, numpy 2.4) its median over a burst ranged from 1.8 to 3.0 ms
# in one day; 2 ms is near the fast end.  Only the ratio to it matters; it is
# fixed so that scaled times from different runs and commits are comparable.
REFERENCE_UNIT_S = 0.002
PERIOD_S = 0.25  # wall time between two samples inside a repetition


def _problem(n: int, points: int):
    x = np.linspace(0.0, 1.0, n)
    return x, 0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x), np.linspace(0.05, 0.95, points)


_PROBLEMS = (_problem(52, 40), _problem(4000, 20))


def unit() -> float:
    """The fixed reference computation: kernel-weighted line fits at n = 52 and 4000."""
    total = 0.0
    for x, y, grid in _PROBLEMS:
        for g in grid:
            d = x - g
            w = np.exp(-0.5 * (d / 0.1) ** 2)
            s0, s1, s2 = w.sum(), (w * d).sum(), (w * d * d).sum()
            t0, t1 = (w * y).sum(), (w * d * y).sum()
            b0, _ = np.linalg.solve([[s0, s1], [s1, s2]], [t0, t1])
            total += float(b0)
    return total


def burst(seconds: float) -> list[float]:
    """Times back-to-back units for about ``seconds``; at least three."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t)
    return times


class Sampler:
    """Times one unit every ``PERIOD_S`` seconds of wall time while entered.

    ``samples`` holds the unit times and ``spent`` the time the handler took,
    which the caller subtracts from the wall time it measured around the
    ``with`` block.  Only the main thread can use it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        unit()  # first call pays numpy's one-off costs
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        unit()
        self.samples.append(time.perf_counter() - t)
        self.spent += time.perf_counter() - t

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def scale(wall: float, unit_times: list[float]) -> float:
    """``wall`` seconds expressed at the reference host speed."""
    return wall * REFERENCE_UNIT_S / statistics.median(unit_times)


def scale_reps(rep_times: list[float], unit_times: list[list[float]]) -> list[float]:
    """Scales repetition i by the unit times sampled during and right after it."""
    return [scale(t, u) for t, u in zip(rep_times, unit_times, strict=True)]

"""Machine-speed calibration, so timings on a shared CPU hold still.

On a shared virtual machine the speed of a core drifts by tens of percent
within seconds: identical passes over the score_large pool took from 1.6 to
3.4 s within one process, and a fixed pure-Python loop from 82 to 160 ms
within one minute.  A Clock runs a small fixed kernel (Python bytecode plus
tiny numpy ops, the mix the library spends its time in) between the steps
of a workload and records how long each run of it took.

``durations(a, b, normalized=True)`` is the time from a to b at the
reference speed: the stretch between two calibrations is divided by their
mean kernel time over REF_S, so a step that ran while the machine was slow
counts for the time it would have taken at the reference speed.  With
``normalized=False`` it is the plain wall time.  Both leave out the
calibrations themselves.  Normalizing by a kernel
measured around each step cut the run-to-run coefficient of variation of
a score_large pass from 0.20 to 0.07 on a 2-core VM.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.002  # kernel time that counts as the reference speed


def _kernel() -> float:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    a = np.arange(20.0)
    for _ in range(200):
        a = a * 1.0001 + 1.0
    return s + float(a[0])


class Clock:
    """Calibration record of one loop."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def calibrate(self) -> None:
        start = perf_counter()
        _kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def factors(self) -> np.ndarray:
        """Kernel time over REF_S for each calibration (>1 means slow)."""
        return (np.asarray(self.ends) - np.asarray(self.starts)) / REF_S

    def _segments(self):
        """Gaps between calibrations with their speed factors; before the
        first and after the last, the nearest calibration's factor."""
        s = np.asarray(self.starts)
        e = np.asarray(self.ends)
        f = self.factors()
        if not f.size:
            return (np.array([-np.inf]), np.array([np.inf]), np.ones(1))
        lo = np.concatenate([[-np.inf], e])
        hi = np.concatenate([s, [np.inf]])
        mid = 0.5 * (f[:-1] + f[1:])
        fac = np.concatenate([[f[0]], mid, [f[-1]]])
        return lo, hi, fac

    def durations(self, a, b, normalized: bool) -> np.ndarray:
        """Time from each a to the matching b, calibrations left out;
        at the reference speed when ``normalized``."""
        lo, hi, fac = self._segments()
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))[:, None]
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))[:, None]
        overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
        if normalized:
            overlap = overlap / fac
        return overlap.sum(axis=1)

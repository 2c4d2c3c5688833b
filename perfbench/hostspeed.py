"""Host-speed normalisation of timed work.

The benchmark host is shared: for tens of seconds at a time its CPU runs
the same code up to ~1.7x slower, which would swamp any regression
bound. Every timed piece of work is therefore bracketed by a fixed
reference kernel (plain Python, small NumPy and pandas operations, none
of the program's code), and its wall time is scaled by
``NOMINAL_S / (mean kernel time around it)``. A reported time is thus the
time the work would take on a host where the kernel takes ``NOMINAL_S``;
the raw wall times are printed in the run's report alongside.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

#: the kernel's time on this benchmark's reference host when it is quiet
NOMINAL_S = 0.05


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._pts = rng.normal(size=(300, 2))
        self._mat = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        self._frame = pd.DataFrame({"x": rng.normal(size=300), "y": rng.normal(size=300)})
        self.kernel_s: list[float] = []

    def kernel(self) -> float:
        """Run the reference kernel once; returns its wall seconds. Its
        three parts (interpreter loop, small-array NumPy, pandas filter)
        slow down by different amounts, so it covers the mix the
        workloads run."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i
        for _ in range(150):
            d2 = ((self._pts[:, None, :] - self._pts[None, :20, :]) ** 2).sum(axis=2)
            np.unique(d2.argmin(axis=1))
            np.linalg.solve(self._mat, self._pts[:2, 0])
        for _ in range(75):
            self._frame[(self._frame.x > 0.1) & (self._frame.y < 0.3)]
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` between two kernel runs. Returns (result, wall
        seconds, factor) with normalised seconds = wall * factor."""
        before = self.kernel()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = self.kernel()
        return result, wall, self.factor(before, after)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale factor of work bracketed by kernel runs of these times."""
        return NOMINAL_S / ((before + after) / 2)

"""TPI: temporal partition-based index (paper Alg. 4, Def. 5.1, Eq. 12-14).

Streams timesteps into a sequence of (period, PI) pairs. For each new
timestamp, the covered points' trajectory-region densities (TRD) are
compared against the densities at the period start: if the average
dropping rate (ADR) exceeds eps_d the current period closes and a fresh PI
is built ("Re-build"); otherwise covered points are appended and, if some
points fall outside every rectangle, a new PI over just those points is
grafted onto the current one ("Insertion").
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.index.pi import PI, build_pi


@dataclass
class Period:
    """A closed or open time period served by one PI."""

    ts: int
    te: int | None
    pi: PI


def adr(
    d_now: np.ndarray, d_base: np.ndarray, eps_c: float
) -> float:
    """Average dropping rate of TRD (Eq. 12-14).

    A rectangle counts when its density *dropped* by more than eps_c
    relative to the period-start baseline.
    """
    n = len(d_base)
    if n == 0:
        return 0.0
    base = np.where(d_base > 0, d_base, 1e-30)
    h1 = (d_now - d_base) / base
    flags = (h1 < 0) & (np.abs(h1) > eps_c)
    return float(flags.sum() / n)


@dataclass
class TPI:
    """The temporal index: push timesteps, then answer (x, y, t) lookups."""

    eps_d: float = 0.5
    eps_c: float = 0.5
    eps_s: float = 0.1
    gc: float = 0.0009
    seed: int = 0
    periods: list[Period] = field(default_factory=list)
    n_rebuilds: int = 0
    n_insertions: int = 0
    build_seconds: float = 0.0
    _base_density: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def current(self) -> Period | None:
        return self.periods[-1] if self.periods else None

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def push(self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> str:
        """Index the points at time ``t``. Returns the action taken:
        'initial', 're-build', 'insertion' or 'append'; or 'empty' for a
        timestep with no points, which leaves the index unchanged (no
        period is opened, closed or extended).

        Raises ``ValueError``, before changing the index, when the three
        arrays differ in length or a coordinate is NaN or infinite.
        """
        start = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if not len(ids) == len(xs) == len(ys):
            raise ValueError(
                f"TPI.push at t={t}: {len(ids)} ids, {len(xs)} xs and {len(ys)} ys"
            )
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"TPI.push at t={t}: coordinates must be finite, got NaN or inf")
        try:
            if not len(ids):
                return "empty"
            if self.current is None:
                self._open_period(t, ids, xs, ys)
                return "initial"
            pi = self.current.pi
            ri = pi.rect_of(xs, ys)
            covered = ri >= 0
            counts = np.bincount(ri[covered], minlength=len(pi.rects))
            d_now = counts / pi.rect_sizes()
            if adr(d_now, self._base_density, self.eps_c) > self.eps_d:
                self.current.te = t - 1
                self.n_rebuilds += 1
                self._open_period(t, ids, xs, ys)
                return "re-build"
            pi.add_points(t, ids, xs, ys, ri)
            if not covered.all():
                extra = build_pi(
                    t,
                    ids[~covered],
                    xs[~covered],
                    ys[~covered],
                    eps_s=self.eps_s,
                    gc=self.gc,
                    seed=self.seed + t,
                )
                pi.extend(extra)
                # inserted rectangles join the baseline so later ADR checks
                # see them (their baseline density is their density now)
                self._base_density = np.concatenate(
                    [self._base_density, extra.counts_per_rect(t) / extra.rect_sizes()]
                )
                self.n_insertions += 1
                return "insertion"
            return "append"
        finally:
            self.build_seconds += time.perf_counter() - start

    def _open_period(self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        pi = build_pi(t, ids, xs, ys, eps_s=self.eps_s, gc=self.gc, seed=self.seed + t)
        self.periods.append(Period(ts=t, te=None, pi=pi))
        self._base_density = pi.counts_per_rect(t) / pi.rect_sizes()

    # ---------------- queries ----------------
    def period_for(self, t: int) -> Period | None:
        """The period whose [ts, te] contains t (te=None means open)."""
        for p in self.periods:
            if p.ts <= t and (p.te is None or t <= p.te):
                return p
        return None

    def query(self, x: float, y: float, t: int) -> np.ndarray:
        p = self.period_for(t)
        return p.pi.query(x, y, t) if p else np.zeros(0, dtype=np.int64)

    def query_circle(self, x: float, y: float, t: int, radius: float) -> np.ndarray:
        p = self.period_for(t)
        return p.pi.query_circle(x, y, t, radius) if p else np.zeros(0, dtype=np.int64)

    # ---------------- accounting ----------------
    def size_bits(self) -> int:
        """Total index size: per-period PI sizes + period table."""
        return sum(p.pi.size_bits() for p in self.periods) + self.n_periods * 2 * 32

    def size_mb(self) -> float:
        return self.size_bits() / 8 / 1e6


def build_tpi_from_points(
    points, *, eps_d: float, eps_c: float, eps_s: float, gc: float, seed: int = 0
) -> TPI:
    """Feed a (traj_id, t, x, y) frame through TPI in timestamp order."""
    tpi = TPI(eps_d=eps_d, eps_c=eps_c, eps_s=eps_s, gc=gc, seed=seed)
    for t, batch in points.sort_values("t").groupby("t", sort=True):
        tpi.push(
            int(t),
            batch.traj_id.to_numpy(),
            batch.x.to_numpy(),
            batch.y.to_numpy(),
        )
    if tpi.current is not None and tpi.current.te is None:
        tpi.current.te = int(points.t.max())
    return tpi

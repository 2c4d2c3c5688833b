"""Oracles that every benchmark run applies to the program's outputs.

Each check returns a verdict:

* ``OK`` -- the output equals the brute-force answer;
* ``BOUND`` -- it differs, and every difference is explained by a
  reconstruction lying beyond the summary's claimed radius
  ((sqrt(2)/2) * g_s, Lemma 3). Such outputs count as failed and are
  reported, but the query code itself answered correctly for the summary
  it was given;
* ``WRONG`` -- any other difference. One WRONG output makes the run's
  ``correct`` false.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

OK, BOUND, WRONG = "ok", "bound", "wrong"
#: float slack on the claimed radius (CQC's bound is exact in reals)
RADIUS_SLACK = 1 + 1e-9


@dataclass
class Outcome:
    """Verdicts of one run, one per distinct output.

    A run repeats the same builds and queries for as long as it measures.
    Each output is keyed by its position in the run's fixed work (the
    build, or the index of the query in the seed's pool) and counted once,
    so ``attempted`` and ``failed`` depend on the seed alone, not on how
    many repeats fit in the run. A repeat is checked again; a verdict that
    differs from the first one for the same key is ``WRONG``.
    """

    verdicts: dict[tuple[str, object], str] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)

    def record(self, verdict: str, kind: str, key: object, detail: str = "") -> None:
        first = self.verdicts.get((kind, key))
        if first is None:
            self.verdicts[(kind, key)] = verdict
        elif verdict != first and first != WRONG:
            detail = f"{detail} (verdict {first}, then {verdict} on a repeat)"
            verdict = self.verdicts[(kind, key)] = WRONG
        else:
            return
        if verdict == WRONG and len(self.wrong) < 20:
            self.wrong.append(f"{kind}: {detail}")

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(v != OK for v in self.verdicts.values())

    @property
    def by_kind(self) -> dict[str, dict[str, int]]:
        counts: dict[str, dict[str, int]] = {}
        for (kind, _), verdict in self.verdicts.items():
            counts.setdefault(kind, {OK: 0, BOUND: 0, WRONG: 0})[verdict] += 1
        return counts

    def share_ok(self, kinds: tuple[str, ...]) -> float:
        """Share of the named kinds' outputs that equal the oracle."""
        n = sum(sum(self.by_kind.get(k, {}).values()) for k in kinds)
        ok = sum(self.by_kind.get(k, {}).get(OK, 0) for k in kinds)
        return ok / n if n else 0.0

    def error_rate(self, kinds: tuple[str, ...]) -> float:
        """Share of the named kinds' outputs that differ from the oracle."""
        return 1.0 - self.share_ok(kinds)


def errors_deg(frame: pd.DataFrame) -> np.ndarray:
    """Euclidean distance between true and reconstructed positions."""
    return np.hypot(
        frame.x.to_numpy() - frame.xrec.to_numpy(),
        frame.y.to_numpy() - frame.yrec.to_numpy(),
    )


def check_coded(coded: pd.DataFrame, points: pd.DataFrame, radius: float) -> str:
    """A build must code every input point exactly once, keeping its true
    coordinates, and reconstruct it within the claimed radius."""
    cols = ["traj_id", "t", "x", "y"]
    got = coded[cols].sort_values(["traj_id", "t"]).to_numpy(dtype=np.float64)
    want = points[cols].sort_values(["traj_id", "t"]).to_numpy(dtype=np.float64)
    if got.shape != want.shape or not np.array_equal(got, want):
        return WRONG
    return BOUND if (errors_deg(coded) > radius * RADIUS_SLACK).any() else OK


def bound_violations(coded: pd.DataFrame, radius: float) -> int:
    return int((errors_deg(coded) > radius * RADIUS_SLACK).sum())


def check_strq(
    frame: pd.DataFrame, answer: set[int], truth: set[int], radius: float
) -> str:
    """Local-search STRQ with verification must return exactly the IDs
    whose true position is in the query cell. A missed ID is explained
    only when its reconstruction is beyond the claimed radius."""
    if answer == truth:
        return OK
    if answer - truth:
        return WRONG
    missed = frame[frame.traj_id.isin(truth - answer)]
    return BOUND if (errors_deg(missed) > radius * RADIUS_SLACK).all() else WRONG


def check_path(
    rows: pd.DataFrame, raw: pd.DataFrame, t0: int, l: int, radius: float
) -> str:
    """TPQ: ``Summary.path`` must return every raw timestep of the window
    with its true coordinates, each reconstruction within the radius.
    ``raw`` is the trajectory's raw points indexed by t."""
    window = raw.loc[(raw.index >= t0) & (raw.index <= t0 + l)]
    if (
        not np.array_equal(rows.index.to_numpy(), window.index.to_numpy())
        or not np.array_equal(rows.x.to_numpy(), window.x.to_numpy())
        or not np.array_equal(rows.y.to_numpy(), window.y.to_numpy())
    ):
        return WRONG
    return BOUND if (errors_deg(rows) > radius * RADIUS_SLACK).any() else OK


def tpi_truth(tpi, xs: np.ndarray, ys: np.ndarray, ids: np.ndarray, x, y, t) -> np.ndarray:
    """Brute-force TPI lookup: the raw points at ``t`` (``xs``, ``ys``,
    ``ids``) that share the query's (rectangle, grid cell) in the PI of
    the period covering ``t``. A point belongs to the first rectangle of
    the PI that contains it."""
    period = next(
        (p for p in tpi.periods if p.ts <= t and (p.te is None or t <= p.te)), None
    )
    if period is None:
        return np.zeros(0, dtype=np.int64)
    rects, gc = period.pi.rects, period.pi.gc
    ri = next((i for i, r in enumerate(rects) if r.contains(x, y)), None)
    if ri is None:
        return np.zeros(0, dtype=np.int64)
    r = rects[ri]
    m = r.contains_many(xs, ys)
    for earlier in rects[:ri]:
        m &= ~earlier.contains_many(xs, ys)
    m &= ((xs - r.x0) // gc == (x - r.x0) // gc) & ((ys - r.y0) // gc == (y - r.y0) // gc)
    return np.sort(ids[m])

"""Axis-aligned rectangles: MBRs and overlap removal (paper Alg. 3 lines
5-8, citing Gourley & Green's polygon-to-rectangle conversion [17]).

``remove_overlap(new, existing)`` returns disjoint rectangles covering the
part of ``new`` not already covered by ``existing`` -- the classic
guillotine decomposition (subtracting one rectangle leaves at most four).
Rectangles are closed-open on both axes except at the global max edge;
point-in-rect uses half-open semantics so adjacent rects never double-index
a point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    """[x0, x1) x [y0, y1) axis-aligned rectangle."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def is_empty(self, tol: float = 0.0) -> bool:
        return self.width <= tol or self.height <= tol

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (xs >= self.x0) & (xs < self.x1) & (ys >= self.y0) & (ys < self.y1)

    def intersects(self, o: "Rect") -> bool:
        return not (
            o.x1 <= self.x0 or self.x1 <= o.x0 or o.y1 <= self.y0 or self.y1 <= o.y0
        )

    def intersection(self, o: "Rect") -> "Rect":
        return Rect(
            max(self.x0, o.x0), max(self.y0, o.y0), min(self.x1, o.x1), min(self.y1, o.y1)
        )


def mbr(pts: np.ndarray, *, pad: float = 1e-12) -> Rect:
    """Minimum bounding rectangle of (n, 2) points (half-open safe: the
    max edge is padded so boundary points stay inside). Where ``pad`` is
    below the coordinates' float spacing (|coordinate| above a few
    thousand), the max edge is the next float up instead."""
    pts = np.atleast_2d(pts)
    x1, y1 = (_above(float(pts[:, c].max()), pad) for c in (0, 1))
    return Rect(float(pts[:, 0].min()), float(pts[:, 1].min()), x1, y1)


def _above(v: float, pad: float) -> float:
    """``v + pad``, or the next float above ``v`` when that rounds to ``v``."""
    return v + pad if v + pad > v else float(np.nextafter(v, np.inf))


def subtract_one(r: Rect, cut: Rect) -> list[Rect]:
    """Pieces of ``r`` not covered by ``cut`` (<= 4 rectangles)."""
    if not r.intersects(cut):
        return [r]
    i = r.intersection(cut)
    pieces = [
        Rect(r.x0, r.y0, r.x1, i.y0),  # below
        Rect(r.x0, i.y1, r.x1, r.y1),  # above
        Rect(r.x0, i.y0, i.x0, i.y1),  # left band
        Rect(i.x1, i.y0, r.x1, i.y1),  # right band
    ]
    return [p for p in pieces if not p.is_empty()]


def remove_overlap(new: Rect, existing: list[Rect]) -> list[Rect]:
    """Alg. 3 remove_overlap: disjoint rects covering ``new`` minus the
    union of ``existing``."""
    pieces = [new]
    for cut in existing:
        nxt: list[Rect] = []
        for p in pieces:
            nxt.extend(subtract_one(p, cut))
        pieces = nxt
        if not pieces:
            break
    return pieces

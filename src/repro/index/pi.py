"""PI: the partition-based spatial index at one timestamp (paper Alg. 3).

Construction: partition T^t with the grow-until-eps_s routine (Eq. 7 with
eps_s), take each partition's minimum bounding rectangle, remove overlaps
so rectangles are disjoint, and grid every rectangle into cells of size
``g_c``. Each (rect, cell) stores, per timestamp, the delta+Huffman
compressed list of trajectory IDs whose point falls in the cell.

The same PI object indexes later timestamps of its period (``add_points``)
-- that is how TPI reuses structure -- and can absorb extra rectangles for
uncovered points ("Insertion", ``extend``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kmeans import grow_partition
# encode_ids stays importable from here: profiling wraps it by this name
from repro.index.idcodec import EncodedIds, decode_ids, encode_id_lists, encode_ids  # noqa: F401
from repro.index.rectangles import Rect, mbr, remove_overlap

CellKey = tuple[int, int, int]  # (rect_idx, cx, cy)

#: most (point, rect) pairs ``rect_of`` tests in one array operation
_MAX_PAIRS = 1 << 20


@dataclass
class PI:
    """Disjoint rectangles + per-rectangle grid of compressed ID lists."""

    gc: float
    rects: list[Rect] = field(default_factory=list)
    cells: dict[CellKey, dict[int, EncodedIds]] = field(default_factory=dict)
    built_at: int = 0
    build_seconds: float = 0.0
    # rects as rows (x0, y0, x1, y1) and their sizes; set from ``rects`` at
    # construction and kept in step by ``extend``
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._bounds = np.array(
            [(r.x0, r.y0, r.x1, r.y1) for r in self.rects], dtype=np.float64
        ).reshape(-1, 4)
        self._sizes = np.array(
            [
                max(1, int(np.ceil(r.width / self.gc)))
                * max(1, int(np.ceil(r.height / self.gc)))
                for r in self.rects
            ],
            dtype=np.int64,
        )

    # ---------------- geometry ----------------
    def rect_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Rect index per point, -1 when uncovered. Rects are disjoint, so
        the first hit is the only hit."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.full(len(xs), -1, dtype=np.int64)
        if not len(self.rects):
            return out
        b = self._bounds
        step = max(1, _MAX_PAIRS // len(b))
        for i in range(0, len(xs), step):
            x = xs[i : i + step, None]
            y = ys[i : i + step, None]
            inside = (x >= b[:, 0]) & (x < b[:, 2]) & (y >= b[:, 1]) & (y < b[:, 3])
            out[i : i + step] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
        return out

    def cell_of(self, ri: int, x: float, y: float) -> CellKey:
        r = self.rects[ri]
        return (ri, int((x - r.x0) // self.gc), int((y - r.y0) // self.gc))

    # ---------------- maintenance ----------------
    def add_points(
        self,
        t: int,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        rect_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Index covered points at time ``t``; returns mask of uncovered.

        ``rect_idx`` is ``rect_of(xs, ys)`` when the caller has it already.
        Points are bucketed into (rect, cx, cy) cells by one sort, and the
        cells' ID lists are encoded in one :func:`encode_id_lists` call.
        """
        start = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        ri = self.rect_of(xs, ys) if rect_idx is None else rect_idx
        covered = ri >= 0
        r = ri[covered]
        origin = self._bounds[r]
        # floor_divide rounds as cell_of's float ``//`` does; floor(a / b) may not
        cx = np.floor_divide(xs[covered] - origin[:, 0], self.gc).astype(np.int64)
        cy = np.floor_divide(ys[covered] - origin[:, 1], self.gc).astype(np.int64)
        cid = ids[covered]
        order = np.lexsort((cid, cy, cx, r))
        r, cx, cy, cid = r[order], cx[order], cy[order], cid[order]
        new_cell = np.ones(len(r), dtype=bool)
        new_cell[1:] = (r[1:] != r[:-1]) | (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
        starts = np.flatnonzero(new_cell)
        keys = zip(r[starts].tolist(), cx[starts].tolist(), cy[starts].tolist())
        for key, enc in zip(keys, encode_id_lists(cid, starts)):
            self.cells.setdefault(key, {})[t] = enc
        self.build_seconds += time.perf_counter() - start
        return ~covered

    def extend(self, other: "PI") -> None:
        """Absorb another PI's rectangles and cells (TPI "Insertion")."""
        off = len(self.rects)
        self.rects.extend(other.rects)
        self._bounds = np.concatenate([self._bounds, other._bounds])
        self._sizes = np.concatenate([self._sizes, other._sizes])
        for (ri, cx, cy), per_t in other.cells.items():
            self.cells[(ri + off, cx, cy)] = per_t
        self.build_seconds += other.build_seconds

    # ---------------- queries ----------------
    def query(self, x: float, y: float, t: int) -> np.ndarray:
        """IDs in the grid cell containing (x, y) at time t (STRQ core)."""
        for ri, r in enumerate(self.rects):
            if r.contains(x, y):
                enc = self.cells.get(self.cell_of(ri, x, y), {}).get(t)
                return decode_ids(enc) if enc else np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=np.int64)

    def query_circle(self, x: float, y: float, t: int, radius: float) -> np.ndarray:
        """IDs in every cell overlapping the circle (local search, §5.2)."""
        out: list[np.ndarray] = []
        for ri, r in enumerate(self.rects):
            if (
                x + radius <= r.x0
                or x - radius >= r.x1
                or y + radius <= r.y0
                or y - radius >= r.y1
            ):
                continue
            cx0 = int((max(x - radius, r.x0) - r.x0) // self.gc)
            cx1 = int((min(x + radius, r.x1 - 1e-15) - r.x0) // self.gc)
            cy0 = int((max(y - radius, r.y0) - r.y0) // self.gc)
            cy1 = int((min(y + radius, r.y1 - 1e-15) - r.y0) // self.gc)
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    enc = self.cells.get((ri, cx, cy), {}).get(t)
                    if enc:
                        out.append(decode_ids(enc))
        return (
            np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)
        )

    # ---------------- accounting ----------------
    def counts_per_rect(self, t: int) -> np.ndarray:
        """N_{R_i, t}: indexed trajectories per rectangle at time t."""
        out = np.zeros(len(self.rects), dtype=np.int64)
        for (ri, _, _), per_t in self.cells.items():
            enc = per_t.get(t)
            if enc:
                out[ri] += enc.n_ids
        return out

    def rect_sizes(self) -> np.ndarray:
        """|R_i| in grid cells (Definition 5.1's rectangle size)."""
        return self._sizes

    def size_bits(self) -> int:
        """Index size: rect metadata + cell keys + compressed ID lists."""
        bits = len(self.rects) * 4 * 64
        for per_t in self.cells.values():
            bits += 3 * 32  # cell key
            for enc in per_t.values():
                bits += 32 + enc.total_bits  # timestamp + payload
        return bits


def build_pi(
    t: int,
    ids: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    eps_s: float,
    gc: float,
    seed: int = 0,
) -> PI:
    """Algorithm 3: build the PI over the points at time ``t``."""
    start = time.perf_counter()
    xy = np.column_stack([xs, ys]).astype(np.float64)
    if not np.isfinite(xy).all():
        raise ValueError(f"build_pi at t={t}: coordinates must be finite, got NaN or inf")
    labels, _, _ = grow_partition(xy, eps_s, seed=seed)
    region_list: list[Rect] = []
    for j in np.unique(labels):
        r = mbr(xy[labels == j])
        region_list.extend(remove_overlap(r, region_list))
    pi = PI(gc=gc, rects=region_list, built_at=t)
    pi.build_seconds = time.perf_counter() - start
    uncov = pi.add_points(t, ids, xs, ys)
    if uncov.any():
        raise RuntimeError(
            f"build_pi at t={t}: {int(uncov.sum())} of its own points fall outside its rectangles"
        )
    return pi

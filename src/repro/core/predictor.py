"""Linear AR(k) prediction for trajectory points (paper Eq. 1-2).

At each timestep a single coefficient vector ``P[t] in R^k`` is fit per
partition by least squares so that ``T_i^t ~= sum_j P_j[t] * That_i^{t-j}``
over all active trajectories i in the partition, where ``That`` are the
*reconstructed* previous points (Eq. 2 -- prediction must use what the
decoder has, otherwise encoder and decoder drift apart).

``History`` keeps, per trajectory, the last k reconstructed points.
"""
from __future__ import annotations

import numpy as np

DEFAULT_K = 2
"""AR order. The paper does not state its k; AR(2) captures the
constant-velocity regime dominant in vehicle data (see DESIGN.md)."""


def ridge_solve(a: np.ndarray, b: np.ndarray, ata: np.ndarray, atb: np.ndarray,
                *, ridge: float = 1e-10) -> np.ndarray:
    """Solve a stack of ridge-regularised least-squares fits at once.

    ``a`` (n, m, k) and ``b`` (n, m) are the design matrices and targets
    (rows of zeros are allowed and change nothing); ``ata`` (n, k, k) and
    ``atb`` (n, k) are their AᵀA and Aᵀb. The ridge ``ridge·max(1,
    max|A|²)·I`` keeps collinear histories (e.g. stationary objects)
    solvable; a system still singular takes its plain least-squares fit.
    Returns the (n, k) solutions.
    """
    k = ata.shape[-1]
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)) ** 2)
    reg = ata + ridge * np.eye(k) * scale[:, None, None]
    try:
        return np.linalg.solve(reg, atb[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty(atb.shape)
        for i in range(len(reg)):
            try:
                out[i] = np.linalg.solve(reg[i], atb[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        return out


def fit_coeffs(hist: np.ndarray, cur: np.ndarray, *, ridge: float = 1e-10) -> np.ndarray:
    """Least-squares fit of P[t] (shape (k,)) from history to current points.

    ``hist`` has shape (n, k, 2) with hist[:, j-1] the reconstruction at
    t-j; ``cur`` has shape (n, 2). The x and y equations share the same
    coefficients (the paper's f is one function per partition), so both
    axes are stacked into one regression, solved by :func:`ridge_solve`.
    """
    a = np.concatenate([hist[:, :, 0], hist[:, :, 1]], axis=0)  # (2n, k)
    b = np.concatenate([cur[:, 0], cur[:, 1]], axis=0)  # (2n,)
    return ridge_solve(a[None], b[None], (a.T @ a)[None], (a.T @ b)[None], ridge=ridge)[0]


def predict(hist: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply P[t]: (n, k, 2) x (k,) -> (n, 2) predictions (Eq. 2)."""
    return np.einsum("nkd,k->nd", hist, coeffs)


class History:
    """The last k reconstructed points of every trajectory seen so far.

    Dense and slot-indexed: each trajectory id gets a slot the first time
    it is pushed; ``_buf[slot, j-1]`` is its reconstruction at t-j and
    ``_count[slot]`` the number pushed so far. ``_keys`` holds the known
    ids sorted, with ``_key_slot`` their slots, so an id batch maps to
    slots with one ``searchsorted``.
    """

    def __init__(self, k: int = DEFAULT_K):
        self.k = k
        self._keys = np.empty(0, dtype=np.int64)
        self._key_slot = np.empty(0, dtype=np.int64)
        self._buf = np.zeros((0, k, 2))
        self._count = np.zeros(0, dtype=np.int64)

    def _slots(self, ids) -> np.ndarray:
        """Slot per id, -1 for an id never pushed."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if not len(self._keys):
            return np.full(len(ids), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._keys, ids), len(self._keys) - 1)
        return np.where(self._keys[pos] == ids, self._key_slot[pos], -1)

    def _add(self, ids: np.ndarray) -> None:
        """Give fresh slots to ``ids`` (unique, not yet known)."""
        n = len(self._count)
        self._buf = np.concatenate([self._buf, np.zeros((len(ids), self.k, 2))])
        self._count = np.concatenate([self._count, np.zeros(len(ids), dtype=np.int64)])
        keys = np.concatenate([self._keys, ids])
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._key_slot = np.concatenate([self._key_slot, np.arange(n, n + len(ids))])[order]

    def count(self, traj_id: int) -> int:
        """Number of reconstructions pushed so far for ``traj_id``."""
        slot = self._slots([traj_id])[0]
        return int(self._count[slot]) if slot >= 0 else 0

    def warm_ids(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``ids``: has a full k-length history."""
        slots = self._slots(ids)
        known = slots >= 0
        warm = np.zeros(len(slots), dtype=bool)
        warm[known] = self._count[slots[known]] >= self.k
        return warm

    def matrix(self, ids: np.ndarray) -> np.ndarray:
        """History tensor (n, k, 2); hist[:, j-1] is the point at t-j.

        All ids must be warm (``warm_ids`` true).
        """
        return self._buf[self._slots(ids)]

    def push(self, ids: np.ndarray, recon: np.ndarray) -> None:
        """Record reconstructed points for this timestep. An id repeated
        within ``ids`` is pushed once per occurrence, in order."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        recon = np.asarray(recon, dtype=np.float64).reshape(-1, 2)
        slots = self._slots(ids)
        if (slots < 0).any():
            self._add(np.unique(ids[slots < 0]))
            slots = self._slots(ids)
        for rows in occurrence_rounds(slots):
            s = slots[rows]
            self._buf[s, 1:] = self._buf[s, :-1]
            self._buf[s, 0] = recon[rows]
            self._count[s] += 1

    def last(self, traj_id: int) -> np.ndarray | None:
        """Most recent reconstruction for ``traj_id`` (or None)."""
        slot = self._slots([traj_id])[0]
        if slot < 0:
            return None
        return self._buf[slot, 0].copy()


def occurrence_rounds(slots: np.ndarray) -> list[np.ndarray | slice]:
    """Split row positions into rounds in which no slot repeats.

    Round r holds the r-th occurrence of every slot, so applying one
    vectorised update per round, in order, equals updating row by row.
    Without repeats (the normal case) there is one round of all rows.
    """
    srt = np.sort(slots)
    if not (srt[1:] == srt[:-1]).any():
        return [slice(None)]
    n = len(slots)
    order = np.argsort(slots, kind="stable")
    first = np.ones(n, dtype=bool)
    first[1:] = srt[1:] != srt[:-1]
    group_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - group_start
    return [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]

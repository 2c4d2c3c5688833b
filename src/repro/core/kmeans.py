"""Plain NumPy k-means and the paper's grow-until-bounded partitioning.

Sections 3.2.1 / 5.1 partition points by increasing the number of clusters
until every point is within ``eps`` of its cluster centroid (Eq. 7/8, and
Alg. 3 line 1 with eps_s). We realise the "q increases until satisfied"
loop as bisecting splits of violating clusters, which terminates (a
singleton always satisfies any eps >= 0) and matches Lemma 1's
O(q*m*N*l) shape: each round splits every violating cluster once.
"""
from __future__ import annotations

import numpy as np


def kmeans(
    pts: np.ndarray, k: int, *, seed: int = 0, iters: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means. Returns (labels, centroids); k is clamped to n.

    Init is greedy farthest-point (deterministic given ``seed`` for the
    first pick), which avoids empty clusters on well-separated data.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    k = max(1, min(k, n))
    if k == 1:
        c = pts.mean(axis=0, keepdims=True)
        return np.zeros(n, dtype=np.int64), c
    g = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[g.integers(0, n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = pts[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        _set_means(centroids, pts, labels)
    return labels, centroids


def _set_means(centroids: np.ndarray, pts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Set row ``j`` of ``centroids`` to the mean of the points labelled
    ``j``, for every ``j`` with members; return the member counts.

    Each mean is bit-identical to ``pts[labels == j].mean(axis=0)``. With
    two or more columns NumPy sums the mask's rows in order, as
    ``bincount`` does. With one column it sums the values pairwise, which
    ``bincount`` (and ``add.reduceat``) do not reproduce, so each cluster's
    run of values is summed on its own.
    """
    k, d = centroids.shape
    counts = np.bincount(labels, minlength=k)
    if d == 1:
        vals = pts[np.argsort(labels, kind="stable"), 0]
        ends = np.cumsum(counts).tolist()
        sums = np.array([[vals[e - c : e].sum()] for c, e in zip(counts.tolist(), ends)])
    else:
        sums = np.column_stack(
            [np.bincount(labels, weights=pts[:, c], minlength=k) for c in range(d)]
        )
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, None]
    return counts


def _split_two(pts: np.ndarray, seed: int) -> np.ndarray:
    """Split points into two non-empty groups, guaranteed to make progress.

    Uses k-means(2) seeded by the farthest pair; falls back to a median
    split along the widest axis when k-means degenerates (e.g. heavy
    duplicates), so the grow loop always terminates.
    """
    labels, _ = kmeans(pts, 2, seed=seed, iters=8)
    if labels.min() == labels.max():
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        med = np.median(pts[:, axis])
        labels = (pts[:, axis] > med).astype(np.int64)
        if labels.min() == labels.max():  # all identical values
            labels = np.zeros(len(pts), dtype=np.int64)
            labels[: len(pts) // 2] = 1
    return labels


def grow_partition(
    pts: np.ndarray, eps: float, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition ``pts`` so every point is within ``eps`` of its centroid.

    Returns ``(labels, centroids, rounds)`` where ``rounds`` counts the
    split rounds (the paper's m in Lemma 1).
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    labels = np.zeros(n, dtype=np.int64)
    if n == 0:
        return labels, np.zeros((0, pts.shape[1])), 0
    rounds = 0
    while True:
        k = int(labels.max()) + 1
        centroids = np.zeros((k, pts.shape[1]))
        counts = _set_means(centroids, pts, labels)
        viol = _violating_clusters(pts, labels, centroids, counts, eps)
        if not len(viol):
            return labels, centroids, rounds
        rounds += 1
        next_label = k
        # members of every cluster in index order, as np.flatnonzero(labels == j)
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)
        for j in viol.tolist():
            idx = order[ends[j] - counts[j] : ends[j]]
            sub = _split_two(pts[idx], seed + rounds + j)
            labels[idx[sub == 1]] = next_label
            next_label += 1


def _violating_clusters(
    pts: np.ndarray, labels: np.ndarray, centroids: np.ndarray, counts: np.ndarray, eps: float
) -> np.ndarray:
    """Clusters of two or more points with a point farther than ``eps``
    from the centroid, ascending."""
    d = np.sqrt(((pts - centroids[labels]) ** 2).sum(axis=1))
    far = np.full(len(centroids), -np.inf)
    np.maximum.at(far, labels, d)
    return np.flatnonzero((far > eps) & (counts > 1))


def max_dist_to_centroid(pts: np.ndarray, centroid: np.ndarray) -> float:
    """Max Euclidean distance from any point to ``centroid``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return float(np.sqrt(((pts - centroid) ** 2).sum(axis=1)).max())

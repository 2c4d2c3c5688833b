"""Tests for incremental spatio/autocorr partitioning (Sections 3.2.1-3.2.2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import max_dist_to_centroid
from repro.core.partitioning import IncrementalPartitioner, ar_features


class TestARFeatures:
    def test_constant_velocity_coeffs(self):
        t = np.arange(20)
        hist = np.column_stack([0.1 * t, 0.2 * t])
        a = ar_features(hist, k=2)
        # linear motion satisfies p[s] = 2 p[s-1] - p[s-2]
        assert np.allclose(a, [2.0, -1.0], atol=1e-6)

    def test_stationary_coeffs(self):
        hist = np.full((15, 2), 3.0)
        a = ar_features(hist, k=2)
        pred = a[0] * 3.0 + a[1] * 3.0
        assert pred == pytest.approx(3.0, abs=1e-6)

    def test_short_history_zero(self):
        assert np.allclose(ar_features(np.zeros((2, 2)), k=2), 0.0)
        assert np.allclose(ar_features(np.zeros((0, 2)), k=2), 0.0)

    def test_shape(self):
        g = np.random.default_rng(0)
        assert ar_features(g.random((12, 2)), k=3).shape == (3,)

    def test_distinct_dynamics_distinct_features(self):
        t = np.arange(30, dtype=float)
        smooth = np.column_stack([0.01 * t, 0.01 * t])
        g = np.random.default_rng(1)
        jumpy = g.random((30, 2))
        a1 = ar_features(smooth, 2)
        a2 = ar_features(jumpy, 2)
        assert np.linalg.norm(a1 - a2) > 0.05


def _one_fit(hist: np.ndarray, k: int, ridge: float = 1e-10):
    """Reference: one trajectory's fit, built row by row, as (x, M, m).

    M is the regularised normal matrix and m the number of equations.
    """
    rows, ys = [], []
    for s in range(k, len(hist)):
        lags = hist[s - k : s][::-1]  # (k, 2), lag-1 first
        rows += [lags[:, 0], lags[:, 1]]
        ys += [hist[s, 0], hist[s, 1]]
    a, b = np.asarray(rows), np.asarray(ys)
    m = a.T @ a + ridge * np.eye(k) * max(1.0, np.abs(a).max() ** 2)
    return np.linalg.solve(m, a.T @ b), m, len(b)


class TestARFeaturesBatched:
    """The batched fit of many right-aligned windows equals the
    one-trajectory fit, row by row.

    Both solve the same k x k system M x = c, but sum its m products in a
    different order. Each entry of M and c then carries a relative
    rounding error of at most ~m*u (u = 2**-53; on one axis every product
    has the same sign, so the sums do not cancel), and so does each
    computation's solution relative to the exact one, amplified by
    cond(M). Two such solutions differ by at most about
    4 * (m + k) * u * cond(M) * max(1, |x|), the k covering the solve's own
    backward error. On lon/lat coordinates M is nearly singular (the lag
    columns are almost equal), so cond(M) reaches ~1e11 and this allows
    differences of ~1e-4; over 3,000 random cases the largest difference
    was 0.14 of the tolerance (5.7e-5 absolute).
    """

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 2, 3]),
        w=st.integers(1, 20),
        n=st.integers(1, 8),
    )
    def test_matches_one_trajectory_fit(self, seed, k, w, n):
        g = np.random.default_rng(seed)
        lengths = g.integers(0, w + 1, n)
        lengths[0] = g.integers(0, min(w, k) + 1)  # always one cold row
        # positions before a row's history are NaN: they must never be read
        windows = np.full((n, w, 2), np.nan)
        for i, ln in enumerate(lengths):
            origin = [g.uniform(-180, 180), g.uniform(-80, 80)]
            walk = np.cumsum(g.normal(0, 1e-3, (ln, 2)), axis=0)  # ~1e-3 deg steps
            windows[i, w - ln :] = origin + walk
        got = ar_features(windows, k, lengths=lengths)
        assert got.shape == (n, k)
        u = np.finfo(float).eps / 2
        for i, ln in enumerate(lengths):
            if ln < k + 1:
                assert np.array_equal(got[i], np.zeros(k))
                continue
            x, m, n_eq = _one_fit(windows[i, w - ln :], k)
            tol = 4 * (n_eq + k) * u * np.linalg.cond(m) * max(1.0, np.abs(x).max())
            assert np.abs(got[i] - x).max() <= tol

    def test_empty_batch(self):
        assert ar_features(np.zeros((0, 16, 2)), 2, lengths=np.zeros(0)).shape == (0, 2)

    def test_singular_row_falls_back_to_lstsq(self):
        """With no ridge, an all-zero history is singular: only that row
        takes the least-squares path, the others keep their solve."""
        t = np.arange(8, dtype=float)
        windows = np.stack([np.column_stack([0.1 * t, 0.2 * t]), np.zeros((8, 2))])
        got = ar_features(windows, 2, ridge=0.0)
        assert np.allclose(got[0], [2.0, -1.0], atol=1e-6)
        assert np.array_equal(got[1], np.zeros(2))


def _two_blobs(n=40, d=5.0, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(0, 0.05, (n, 2))
    b = g.normal(0, 0.05, (n, 2)) + d
    ids = np.arange(2 * n)
    return ids, np.vstack([a, b])


class TestIncrementalPartitioner:
    def test_initial_partition_respects_eps(self):
        ids, feats = _two_blobs()
        p = IncrementalPartitioner(eps_p=0.5, seed=0)
        pids, stats = p.update(ids, feats)
        assert stats.n_points == len(ids)
        for pid in np.unique(pids):
            m = pids == pid
            assert max_dist_to_centroid(feats[m], feats[m].mean(axis=0)) <= 0.5 + 1e-9

    def test_two_blobs_two_partitions(self):
        ids, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        pids, stats = p.update(ids, feats)
        assert stats.q == 2
        # blob membership is pure
        assert len(np.unique(pids[:40])) == 1
        assert len(np.unique(pids[40:])) == 1
        assert pids[0] != pids[40]

    def test_carry_forward(self):
        ids, feats = _two_blobs()
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        pids1, _ = p.update(ids, feats)
        pids2, stats2 = p.update(ids, feats + 0.01)  # barely moved
        assert np.array_equal(pids1, pids2)
        assert stats2.n_carried == len(ids)
        assert stats2.n_new_partitions == 0

    def test_resplit_on_violation(self):
        ids, feats = _two_blobs(d=3.0)
        p = IncrementalPartitioner(eps_p=10.0, seed=0)
        pids1, s1 = p.update(ids, feats)
        assert s1.q == 1
        # blow the blobs apart: one partition now violates eps_p
        feats2 = feats.copy()
        feats2[40:] += 50.0
        pids2, s2 = p.update(ids, feats2)
        assert s2.q >= 2
        assert s2.n_resplit_partitions >= 1
        for pid in np.unique(pids2):
            m = pids2 == pid
            assert (
                max_dist_to_centroid(feats2[m], feats2[m].mean(axis=0)) <= 10.0 + 1e-9
            )

    def test_merge_close_partitions(self):
        ids, feats = _two_blobs(d=100.0)
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        pids1, s1 = p.update(ids, feats)
        assert s1.q == 2
        # move blob 2 onto blob 1 -> centroids within eps_p -> merge
        feats2 = feats.copy()
        feats2[40:] -= 100.0
        pids2, s2 = p.update(ids, feats2)
        assert s2.n_merges >= 1
        assert s2.q == 1

    def test_merge_at_most_once_per_target(self):
        """Three co-located partitions: one update merges at most one
        source into each target (the paper's merge-once rule)."""
        g = np.random.default_rng(2)
        ids = np.arange(30)
        feats = np.vstack(
            [g.normal(0, 0.01, (10, 2)), g.normal(5, 0.01, (10, 2)), g.normal(10, 0.01, (10, 2))]
        )
        p = IncrementalPartitioner(eps_p=0.5, seed=0)
        _, s1 = p.update(ids, feats)
        assert s1.q == 3
        collapsed = np.tile(feats[:10], (3, 1))
        _, s2 = p.update(ids, collapsed)
        # q=3 -> one merge allowed into the surviving target this round
        assert s2.n_merges == 1
        assert s2.q == 2

    def test_new_trajectories_join_nearest(self):
        ids, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        pids1, _ = p.update(ids, feats)
        new_ids = np.array([1000])
        new_feat = feats[:1][:]  # right on blob 1
        pids2, _ = p.update(
            np.concatenate([ids, new_ids]), np.vstack([feats, new_feat])
        )
        assert pids2[-1] == pids2[0]

    def test_pids_stable_integers(self):
        ids, feats = _two_blobs()
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        pids, _ = p.update(ids, feats)
        assert pids.dtype == np.int64
        assert (pids >= 0).all()

    def test_q_property_tracks_centroids(self):
        ids, feats = _two_blobs(d=10.0)
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        p.update(ids, feats)
        assert p.q == 2

    def test_merge_events_recorded(self):
        ids, feats = _two_blobs(d=100.0)
        p = IncrementalPartitioner(eps_p=1.0, seed=0)
        p.update(ids, feats)
        feats2 = feats.copy()
        feats2[40:] -= 100.0
        p.update(ids, feats2)
        assert len(p.merge_events) >= 1
        src, dst = p.merge_events[0]
        assert src != dst

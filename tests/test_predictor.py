"""Tests for the AR(k) predictor (paper Eq. 1-2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import History, fit_coeffs, predict


class TestFitCoeffs:
    def test_recovers_constant_velocity(self):
        """Constant-velocity motion is exactly AR(2) with P = [2, -1]."""
        g = np.random.default_rng(0)
        pos0 = g.random((50, 2))
        vel = g.random((50, 2)) * 0.01
        p_t2 = pos0
        p_t1 = pos0 + vel
        cur = pos0 + 2 * vel
        hist = np.stack([p_t1, p_t2], axis=1)  # hist[:,0] = t-1
        coeffs = fit_coeffs(hist, cur)
        assert np.allclose(coeffs, [2.0, -1.0], atol=1e-5)

    def test_recovers_stationary(self):
        pos = np.random.default_rng(1).random((40, 2))
        hist = np.stack([pos, pos], axis=1)
        coeffs = fit_coeffs(hist, pos)
        pred = predict(hist, coeffs)
        assert np.allclose(pred, pos, atol=1e-6)

    def test_shape(self):
        hist = np.random.default_rng(2).random((10, 3, 2))
        cur = np.random.default_rng(3).random((10, 2))
        assert fit_coeffs(hist, cur).shape == (3,)

    def test_collinear_history_stable(self):
        """Identical lag columns must not blow up (ridge regularisation)."""
        pos = np.full((20, 2), 5.0)
        hist = np.stack([pos, pos], axis=1)
        coeffs = fit_coeffs(hist, pos)
        assert np.all(np.isfinite(coeffs))
        assert np.allclose(predict(hist, coeffs), pos, atol=1e-4)

    def test_prediction_reduces_error_on_smooth_motion(self):
        g = np.random.default_rng(4)
        v = g.normal(0, 0.001, (100, 2))
        p0 = g.random((100, 2))
        hist = np.stack([p0 + v, p0], axis=1)
        cur = p0 + 2 * v + g.normal(0, 1e-5, (100, 2))
        coeffs = fit_coeffs(hist, cur)
        pred_err = np.abs(cur - predict(hist, coeffs)).mean()
        naive_err = np.abs(cur - hist[:, 0]).mean()  # last-value predictor
        assert pred_err < naive_err


class TestPredict:
    def test_linear_combination(self):
        hist = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, 2, 2)
        coeffs = np.array([0.5, 0.25])
        pred = predict(hist, coeffs)
        assert np.allclose(pred, [[0.5 * 1 + 0.25 * 3, 0.5 * 2 + 0.25 * 4]])

    def test_zero_coeffs_zero_pred(self):
        hist = np.random.default_rng(5).random((7, 2, 2))
        assert np.allclose(predict(hist, np.zeros(2)), 0.0)


class TestHistory:
    def test_cold_start(self):
        h = History(k=2)
        assert h.count(0) == 0
        assert not h.warm_ids(np.array([0])).any()
        assert h.last(0) is None

    def test_warm_after_k_pushes(self):
        h = History(k=2)
        h.push(np.array([0]), np.array([[1.0, 1.0]]))
        assert not h.warm_ids(np.array([0])).any()
        h.push(np.array([0]), np.array([[2.0, 2.0]]))
        assert h.warm_ids(np.array([0])).all()

    def test_matrix_order_latest_first(self):
        h = History(k=3)
        for v in (1.0, 2.0, 3.0):
            h.push(np.array([7]), np.array([[v, v]]))
        m = h.matrix(np.array([7]))
        assert m.shape == (1, 3, 2)
        assert m[0, 0, 0] == 3.0  # t-1
        assert m[0, 2, 0] == 1.0  # t-3

    def test_ring_buffer_overwrites(self):
        h = History(k=2)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.push(np.array([1]), np.array([[v, v]]))
        m = h.matrix(np.array([1]))
        assert m[0, 0, 0] == 4.0
        assert m[0, 1, 0] == 3.0

    def test_independent_trajectories(self):
        h = History(k=1)
        h.push(np.array([1, 2]), np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert h.last(1)[0] == 1.0
        assert h.last(2)[0] == 2.0

    def test_mixed_warm_mask(self):
        h = History(k=1)
        h.push(np.array([1]), np.array([[1.0, 1.0]]))
        mask = h.warm_ids(np.array([1, 2]))
        assert mask.tolist() == [True, False]


class _DictHistory:
    """Reference: one (k, 2) buffer per id in a dict, pushed row by row."""

    def __init__(self, k):
        self.k = k
        self.buf: dict[int, np.ndarray] = {}
        self.count: dict[int, int] = {}

    def push(self, ids, recon):
        for i, p in zip(ids, recon):
            buf = self.buf.setdefault(int(i), np.zeros((self.k, 2)))
            buf[1:] = buf[:-1].copy()
            buf[0] = p
            self.count[int(i)] = self.count.get(int(i), 0) + 1

    def warm_ids(self, ids):
        return np.array([self.count.get(int(i), 0) >= self.k for i in ids], dtype=bool)

    def last(self, i):
        return self.buf[int(i)][0] if self.count.get(int(i), 0) else None


class TestHistoryDense:
    """The slot-indexed History against the dict reference, over ids that
    appear, vanish and return, are far apart, and arrive unsorted."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([1, 2, 3]),
        steps=st.integers(1, 25),
    )
    def test_matches_dict_reference(self, seed, k, steps):
        g = np.random.default_rng(seed)
        universe = g.choice(10**9, size=40, replace=False) - 5 * 10**8
        h, ref = History(k), _DictHistory(k)
        for _ in range(steps):
            ids = g.permutation(universe[g.random(len(universe)) < 0.4])
            probe = g.permutation(universe)
            warm = h.warm_ids(probe)
            assert np.array_equal(warm, ref.warm_ids(probe))
            if warm.any():
                want = np.stack([ref.buf[int(i)] for i in probe[warm]])
                assert np.array_equal(h.matrix(probe[warm]), want)
            for i in probe:
                assert h.count(int(i)) == ref.count.get(int(i), 0)
                got, exp = h.last(int(i)), ref.last(i)
                assert (got is None and exp is None) or np.array_equal(got, exp)
            recon = g.normal(size=(len(ids), 2))
            h.push(ids, recon)
            ref.push(ids, recon)

    def test_repeated_id_in_one_push_is_sequential(self):
        h, ref = History(2), _DictHistory(2)
        ids = np.array([5, 9, 5, 5, 9])
        recon = np.arange(10.0).reshape(5, 2)
        h.push(ids, recon)
        ref.push(ids, recon)
        assert h.count(5) == 3 and h.count(9) == 2
        assert np.array_equal(h.matrix(np.array([5, 9])), np.stack([ref.buf[5], ref.buf[9]]))

    def test_unknown_ids_cold(self):
        h = History(2)
        h.push(np.array([3]), np.ones((1, 2)))
        assert not h.warm_ids(np.array([-1, 2, 4, 10**12])).any()
        assert h.count(4) == 0 and h.last(-1) is None

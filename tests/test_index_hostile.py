"""Hostile input to the PI/TPI indexes: empty timesteps, NaN or infinite
coordinates, mismatched arrays and coordinates too large for a fixed pad."""
import numpy as np
import pytest

import repro.index.rectangles as rect_mod
from repro.core.kmeans import grow_partition
from repro.index.pi import build_pi
from repro.index.rectangles import mbr
from repro.index.tpi import TPI


def _points(n=30, seed=0):
    g = np.random.default_rng(seed)
    return np.arange(n), g.random(n), g.random(n)


def _snapshot(tpi: TPI):
    return (
        [(p.ts, p.te, list(p.pi.rects), {k: dict(v) for k, v in p.pi.cells.items()})
         for p in tpi.periods],
        tpi.n_rebuilds,
        tpi.n_insertions,
        tpi._base_density.tolist(),
    )


def _tpi():
    return TPI(eps_d=0.5, eps_c=0.5, eps_s=0.5, gc=0.1)


class TestEmptyTimestep:
    def test_empty_first_timestep_opens_nothing(self):
        tpi = _tpi()
        empty = np.zeros(0)
        assert tpi.push(1, empty, empty, empty) == "empty"
        assert tpi.n_periods == 0
        assert tpi.push(2, *_points()) == "initial"

    def test_empty_timestep_leaves_index_unchanged(self):
        tpi = _tpi()
        tpi.push(1, *_points())
        before = _snapshot(tpi)
        empty = np.zeros(0)
        assert tpi.push(2, empty, empty, empty) == "empty"
        assert _snapshot(tpi) == before
        assert tpi.current.te is None
        ids, xs, ys = _points()
        assert tpi.push(3, ids, xs, ys) == "append"
        assert 0 in tpi.query(xs[0], ys[0], 3)

    def test_build_pi_over_no_points_is_empty(self):
        empty = np.zeros(0)
        pi = build_pi(1, empty, empty, empty, eps_s=0.5, gc=0.1)
        assert pi.rects == [] and pi.cells == {}
        assert len(pi.query(0.0, 0.0, 1)) == 0

    def test_grow_partition_of_no_points(self):
        labels, cents, rounds = grow_partition(np.zeros((0, 2)), 0.5)
        assert labels.shape == (0,) and cents.shape == (0, 2) and rounds == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_push_rejects_before_changing_index(self, bad, axis):
        tpi = _tpi()
        tpi.push(1, *_points())
        before = _snapshot(tpi)
        ids, xs, ys = _points(seed=1)
        (xs if axis == "x" else ys)[4] = bad
        with pytest.raises(ValueError, match="finite"):
            tpi.push(2, ids, xs, ys)
        assert _snapshot(tpi) == before

    def test_push_rejects_on_first_timestep(self, bad):
        tpi = _tpi()
        ids, xs, ys = _points()
        xs[0] = bad
        with pytest.raises(ValueError, match="finite"):
            tpi.push(1, ids, xs, ys)
        assert tpi.n_periods == 0

    def test_build_pi_rejects(self, bad):
        ids, xs, ys = _points()
        ys[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            build_pi(1, ids, xs, ys, eps_s=0.5, gc=0.1)


def test_push_rejects_mismatched_lengths():
    tpi = _tpi()
    ids, xs, ys = _points()
    with pytest.raises(ValueError, match="ids"):
        tpi.push(1, ids[:-1], xs, ys)
    assert tpi.n_periods == 0


def test_build_pi_raises_when_its_rects_miss_its_points(monkeypatch):
    """The coverage check is a raise, not an ``assert`` that ``python -O``
    strips: rectangles without the max-edge pad leave points outside."""
    monkeypatch.setattr(rect_mod, "_above", lambda v, pad: v)
    ids, xs, ys = _points()
    with pytest.raises(RuntimeError, match="outside its rectangles"):
        build_pi(1, ids, xs, ys, eps_s=0.5, gc=0.1)


class TestLargeCoordinates:
    """A 1e-12 pad is lost in the float spacing of coordinates such as
    projected metres (~1e6), which left a cluster's farthest points outside
    its own rectangle."""

    def test_mbr_keeps_max_point_inside(self):
        pts = np.array([[1e6, 2e6], [1e6 + 5.0, 2e6 + 7.0]])
        r = mbr(pts)
        assert r.contains_many(pts[:, 0], pts[:, 1]).all()

    def test_build_pi_covers_projected_points(self):
        g = np.random.default_rng(0)
        xs, ys = 1e6 + 1000 * g.random(50), 4e6 + 1000 * g.random(50)
        pi = build_pi(0, np.arange(50), xs, ys, eps_s=300.0, gc=100.0)
        assert (pi.rect_of(xs, ys) >= 0).all()
        for i in (0, 17, 49):
            assert i in pi.query(xs[i], ys[i], 0)

"""The Spark feature stage and partition assignment (DESIGN.md section 3).

PPQ-S features are a native Spark aggregate and PPQ-A features one batched
``ar_features`` solve per hash bucket; both are checked here against
per-trajectory references written in pandas/NumPy, and the assignment
against hostile input and shuffle order.
"""
import warnings

import numpy as np
import pandas as pd
import pytest

from repro.core.partitioning import ar_features
from repro.harness import config
from repro.spark.pipeline import (
    assign_partitions,
    build_summary_spark,
    trajectory_features,
)
from repro.trajgen import to_spark
from tests.test_partitioning import _one_fit

K = 2
AR_WINDOW = 16


def _features(spark, pts, mode, **kw):
    feats = trajectory_features(to_spark(spark, pts), mode=mode, **kw).toPandas()
    return feats.sort_values("traj_id", ignore_index=True)


def _in_time_order(pts: pd.DataFrame) -> pd.DataFrame:
    return pts.sort_values(["traj_id", "t", "x", "y"], kind="stable")


def _start_positions(pts: pd.DataFrame) -> np.ndarray:
    """Reference PPQ-S features: each trajectory's first point."""
    first = _in_time_order(pts).groupby("traj_id").head(1)
    return first[["x", "y"]].to_numpy()


def _assert_matches_one_trajectory_fits(pts: pd.DataFrame, feats: pd.DataFrame, k: int):
    """Each row equals ``ar_features`` of that trajectory's first
    ``AR_WINDOW`` points alone, within the tolerance derived in
    ``tests/test_partitioning.py::TestARFeaturesBatched``; a trajectory
    with fewer than k+1 points gets exact zeros."""
    u = np.finfo(float).eps / 2
    got = feats.set_index("traj_id")
    assert got.index.is_unique and len(got) == pts.traj_id.nunique()
    for tid, g in _in_time_order(pts).groupby("traj_id"):
        window = g[["x", "y"]].to_numpy()[:AR_WINDOW]
        row = got.loc[tid, [f"f{j}" for j in range(k)]].to_numpy(dtype=float)
        want = ar_features(window, k)
        if len(window) < k + 1:
            assert np.array_equal(row, np.zeros(k)) and np.array_equal(want, np.zeros(k))
            continue
        _, m, n_eq = _one_fit(window, k)
        tol = 4 * (n_eq + k) * u * np.linalg.cond(m) * max(1.0, np.abs(want).max())
        assert np.abs(row - want).max() <= tol, tid


def _ragged(pts: pd.DataFrame) -> pd.DataFrame:
    """Cut trajectories to lengths 1 .. AR_WINDOW + 2 (cycling), so some
    have fewer than k+1 points and some fewer than AR_WINDOW."""
    rank = pts.sort_values(["traj_id", "t"]).groupby("traj_id").cumcount()
    length = 1 + pts.traj_id % (AR_WINDOW + 2)
    return pts[rank.reindex(pts.index) < length].reset_index(drop=True)


class TestSpatialFeatures:
    @pytest.mark.parametrize("name", ["porto", "geolife"])
    def test_exact_start_positions(self, spark, name):
        pts = config.get("quick").dataset(name).load()
        feats = _features(spark, pts, "S")
        assert list(feats.columns) == ["traj_id", "f0", "f1"]
        assert np.array_equal(feats.traj_id, np.sort(pts.traj_id.unique()))
        assert np.array_equal(feats[["f0", "f1"]].to_numpy(), _start_positions(pts))


class TestAutocorrFeatures:
    @pytest.mark.parametrize("name", ["porto", "geolife"])
    def test_match_one_trajectory_fits(self, spark, name):
        pts = config.get("quick").dataset(name).load()
        _assert_matches_one_trajectory_fits(pts, _features(spark, pts, "A", k=K), K)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_short_trajectories(self, spark, porto_pts, k):
        pts = _ragged(porto_pts)
        lengths = pts.groupby("traj_id").size()
        assert (lengths < k + 1).any() and (lengths < AR_WINDOW).any()
        feats = _features(spark, pts, "A", k=k)
        assert list(feats.columns) == ["traj_id"] + [f"f{j}" for j in range(k)]
        _assert_matches_one_trajectory_fits(pts, feats, k)


class TestDuplicateTimestamps:
    """Duplicate (traj_id, t) rows are taken in (t, x, y) order, so the
    features do not depend on the order the rows arrive in."""

    @pytest.fixture(scope="class")
    def dup_pts(self, porto_pts):
        g = np.random.default_rng(3)
        pick = porto_pts[porto_pts.t <= 3].sample(frac=0.5, random_state=1)
        dup = pick.assign(
            x=pick.x + g.normal(0, 1e-3, len(pick)), y=pick.y + g.normal(0, 1e-3, len(pick))
        )
        pts = pd.concat([porto_pts, dup], ignore_index=True)
        assert pts.duplicated(["traj_id", "t"]).any()
        return pts

    @pytest.mark.parametrize("mode", ["S", "A"])
    def test_row_order_does_not_matter(self, spark, dup_pts, mode):
        orders = [dup_pts, dup_pts.iloc[::-1], dup_pts.sample(frac=1.0, random_state=5)]
        feats = [_features(spark, p.reset_index(drop=True), mode) for p in orders]
        for other in feats[1:]:
            pd.testing.assert_frame_equal(feats[0], other, check_exact=True)

    def test_ties_broken_by_position(self, spark, dup_pts):
        feats = _features(spark, dup_pts, "S")
        assert np.array_equal(feats[["f0", "f1"]].to_numpy(), _start_positions(dup_pts))
        _assert_matches_one_trajectory_fits(dup_pts, _features(spark, dup_pts, "A"), K)


class TestAssignment:
    @pytest.mark.parametrize("mode, eps_p", [("S", 0.02), ("A", 0.05)])
    def test_pid_map_independent_of_shuffle_partitions(self, spark, porto_pts, mode, eps_p):
        """The feature rows arrive in shuffle order. Adaptive execution
        coalesces a small shuffle into one sorted partition, which would
        hide that order, so coalescing is off here as on inputs too large
        to coalesce."""
        df = to_spark(spark, porto_pts)
        coalesce = "spark.sql.adaptive.coalescePartitions.enabled"
        saved = {c: spark.conf.get(c) for c in ("spark.sql.shuffle.partitions", coalesce)}
        maps = []
        try:
            spark.conf.set(coalesce, "false")
            for n in ("4", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", n)
                with_pid = assign_partitions(spark, df, mode=mode, eps_p=eps_p, seed=0)
                m = with_pid.select("traj_id", "pid").distinct().toPandas()
                maps.append(m.sort_values("traj_id", ignore_index=True))
        finally:
            for c, v in saved.items():
                spark.conf.set(c, v)
        assert maps[0].pid.nunique() > 1
        pd.testing.assert_frame_equal(maps[0], maps[1])

    @pytest.mark.parametrize("mode, rank", [("S", 0), ("A", 3)])
    def test_non_finite_feature_raises(self, spark, porto_pts, mode, rank):
        """A NaN start point (PPQ-S) or a NaN inside the AR window (PPQ-A)
        names the first such trajectory instead of splitting silently."""
        pts = porto_pts.sort_values(["traj_id", "t"], ignore_index=True)
        nth = pts.groupby("traj_id").cumcount() == rank
        ids = sorted(pts.traj_id.unique())
        pts.loc[nth & (pts.traj_id == ids[7]), "x"] = np.nan
        pts.loc[nth & (pts.traj_id == ids[3]), "y"] = np.inf
        with pytest.raises(ValueError, match=f"trajectory {ids[3]}$"):
            assign_partitions(spark, to_spark(spark, pts), mode=mode, eps_p=0.05, seed=0)

    @pytest.mark.parametrize("mode", ["S", "A"])
    def test_build_emits_no_user_warning(self, spark, porto_pts, mode):
        df = to_spark(spark, porto_pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with_pid = assign_partitions(spark, df, mode=mode, eps_p=0.05, seed=0)
            coded, codebooks = build_summary_spark(with_pid, eps1=0.001, gs=0.00045, seed=0)
            assert coded.count() == len(porto_pts)
            assert codebooks.count() > 0

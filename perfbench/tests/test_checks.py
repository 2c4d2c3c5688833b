"""The oracles: a corrupted reconstruction must raise the query error rate,
and a bound-respecting summary must pass every check."""
import numpy as np
import pytest

from perfbench import checks
from perfbench.checks import Outcome
from perfbench.tracer import NullTracer
from perfbench.workloads import SummaryWorkload, TPIStreamWorkload


@pytest.fixture(scope="module")
def porto():
    wl = SummaryWorkload("porto_ppqa_online", "tiny", seed=3)
    wl.setup()
    wl.prepare()
    return wl, wl.build()


def test_correct_summary_passes_every_check(porto):
    wl, s = porto
    out = Outcome()
    wl.check_build(s, out)
    wl.queries(s, out, NullTracer(), count=200)
    assert out.failed == 0 and not out.wrong
    assert out.error_rate(("strq", "tpq")) == 0.0
    assert out.share_ok(("strq", "tpq")) == 1.0


def test_corrupted_reconstruction_raises_query_error_rate(porto):
    wl, s = porto
    bad = s.coded.copy()
    # push every reconstruction 3 claimed radii east: no longer within the
    # radius, so local search misses IDs and paths leave the bound
    bad["xrec"] = bad["xrec"] + 3 * wl.radius
    corrupted = type(s)(**{**s.__dict__, "coded": bad, "_paths": None})
    out = Outcome()
    wl.check_build(corrupted, out)
    wl.queries(corrupted, out, NullTracer(), count=200)
    assert out.by_kind["build"][checks.BOUND] == 1
    assert out.error_rate(("strq", "tpq")) > 0.5
    assert out.by_kind["tpq"][checks.BOUND] == 200
    # the misses are explained by the radius violation, not by the query code
    assert not out.wrong


def test_dropped_point_is_wrong_not_bound(porto):
    wl, s = porto
    assert checks.check_coded(s.coded.iloc[1:], wl.inputs.points, wl.radius) == checks.WRONG


def test_strq_extra_id_is_wrong():
    frame = _frame([(1, 0.5, 0.5, 0.5, 0.5)])
    assert checks.check_strq(frame, {1, 2}, {1}, radius=0.1) == checks.WRONG
    assert checks.check_strq(frame, {1}, {1}, radius=0.1) == checks.OK


def test_strq_miss_within_radius_is_wrong():
    frame = _frame([(1, 0.5, 0.5, 0.55, 0.5)])  # error 0.05 <= radius 0.1
    assert checks.check_strq(frame, set(), {1}, radius=0.1) == checks.WRONG
    frame = _frame([(1, 0.5, 0.5, 0.9, 0.5)])  # error 0.4 > radius
    assert checks.check_strq(frame, set(), {1}, radius=0.1) == checks.BOUND


def test_tpi_lookups_match_brute_force():
    wl = TPIStreamWorkload("geolife_tpi_stream", "tiny", seed=5)
    wl.setup()
    wl.prepare()
    out = Outcome()
    r = wl.stream(out)
    assert out.attempted == r["lookups"] > 0
    assert out.failed == 0
    t, ids, xs, ys = wl.batches[-1]
    want = checks.tpi_truth(r["tpi"], xs, ys, ids, float(xs[0]), float(ys[0]), t)
    assert ids[0] in want
    assert np.array_equal(np.sort(r["tpi"].query(xs[0], ys[0], t)), want)


def test_tpi_lookups_index_the_points_pushed_so_far():
    wl = TPIStreamWorkload("geolife_tpi_stream", "tiny", seed=5)
    wl.setup()
    wl.prepare()
    stream = wl.points.sort_values(["t", "traj_id"], kind="mergesort")
    got = [
        (wl.batches[k][0], wl.batches[k][1][r]) for k, r in zip(wl.step_of, wl.row_in_step)
    ]
    assert got == list(zip(stream.t, stream.traj_id))
    # the first pushed[k] points of the stream are those of steps 0..k
    assert all(wl.step_of[n - 1] == k for k, n in enumerate(wl.pushed))


def test_outcome_counts_each_output_once_and_flags_a_changed_verdict():
    out = Outcome()
    for _ in range(3):  # three repeats of the same work
        out.record(checks.OK, "strq", 0)
        out.record(checks.BOUND, "strq", 1)
    assert (out.attempted, out.failed, out.wrong) == (2, 1, [])
    out.record(checks.BOUND, "strq", 0, "t=4")
    assert out.by_kind["strq"] == {checks.OK: 0, checks.BOUND: 1, checks.WRONG: 1}
    assert out.wrong == ["strq: t=4 (verdict ok, then bound on a repeat)"]


def test_the_minimum_rounds_reach_the_whole_query_pool():
    from perfbench import workloads

    assert workloads.MIN_ROUNDS * workloads.QUERY_BLOCK >= workloads.POOL


def test_stream_repeats_check_the_same_outputs():
    wl = TPIStreamWorkload("geolife_tpi_stream", "tiny", seed=5)
    wl.setup()
    wl.prepare()
    out = Outcome()
    wl.stream(out)
    first = dict(out.verdicts)
    wl.stream(out)
    assert out.verdicts == first


def _frame(rows):
    import pandas as pd

    return pd.DataFrame(rows, columns=["traj_id", "x", "y", "xrec", "yrec"])

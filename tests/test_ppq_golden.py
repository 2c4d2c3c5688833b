"""Golden partitioning of PPQ-A at quick scale.

The per-timestep partition statistics below were recorded from the
per-trajectory (one least-squares call per point) PPQ-A implementation
that preceded the batched ``ar_features``. The batched fit sums the
normal equations in another order, so its AR features differ from that
implementation in the last few digits; this test pins that the
partitioning built on them does not change, and that every
reconstruction still meets the paper's bounds.

Each timestep is written as three digits: re-split partitions, merges,
live partitions q (``UpdateStats.n_resplit_partitions``, ``n_merges``,
``q``).
"""
import math

import numpy as np
import pytest

from repro.core.ppq import run_ppq
from repro.harness import config

GOLDEN = {
    "porto": (
        "001 001 001 102 002 103 113 214 114 224 224 114 114 114 224 114 114 114 "
        "114 004 224 114 224 334 215 124 224 325 115 014 115 115 023 214 123 104 "
        "004 004 113 002"
    ),
    "geolife": (
        "001 001 001 102 213 113 003 003 214 004 004 114 004 004 114 004 004 114 "
        "114 004 004 004 004 114 013 104 004 004 004 114 013 114 004 123 003 003 "
        "003 003 113 104 004 114 224 105 005 023 003 003 003 003 003 113 113 003 "
        "003 003 003 003 003 003 003 003 003 003 003 003 003 003 003 003 002 002 "
        "002 002 002 002 002 002 002 002"
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def quick_ppqa(request):
    cfg = config.get("quick")
    ds = cfg.dataset(request.param)
    s = run_ppq(
        ds.load(), mode="A", use_cqc=True, eps1=cfg.eps1, eps_p=ds.eps_p_auto,
        gs=cfg.gs, seed=cfg.seed,
    )
    return request.param, s


def test_partition_stats_match_golden(quick_ppqa):
    name, s = quick_ppqa
    got = " ".join(
        f"{st.n_resplit_partitions}{st.n_merges}{st.q}" for st in s.partition_stats
    )
    assert got == GOLDEN[name]


def test_codebook_reconstruction_within_eps1(quick_ppqa):
    _, s = quick_ppqa
    c = s.coded
    err = np.hypot(c.x - c.xhat, c.y - c.yhat).to_numpy()
    assert err.max() <= s.config["eps1"] * (1 + 1e-9)


def test_cqc_reconstruction_within_lemma3(quick_ppqa):
    _, s = quick_ppqa
    c = s.coded
    err = np.hypot(c.x - c.xrec, c.y - c.yrec).to_numpy()
    assert err.max() <= (math.sqrt(2) / 2) * s.config["gs"] * (1 + 1e-9)

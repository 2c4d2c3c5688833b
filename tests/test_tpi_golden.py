"""Golden TPI streams at quick scale.

The values below were recorded from the per-point, per-cell TPI ingest
that preceded the batched one (cell bucketing by a Python loop over
points, one ``encode_ids`` call per cell, k-means statistics by a mask
per cluster). The batched ingest must build the same index byte for
byte: the same action at every push, the same periods, rectangles and
size, and the same encoded ID list in every cell.

Actions are written one letter per pushed timestep: i(nitial),
r(e-build), (i)n(sertion), a(ppend). Periods are ``ts-te``; the last one
is still open. The digest is SHA-256 over every cell's
``(period, key, t, data, n_ids, lengths, encoded_bits)`` in sorted order.
"""
import hashlib

import pytest

from repro.harness import config
from repro.index.tpi import TPI

GOLDEN = {
    "porto": {
        "actions": "innrnnrnnrnnrnnrnnrnnrnnrnnrnnnrnnrnnrnr",
        "periods": (
            "1-3 4-6 7-9 10-12 13-15 16-18 19-21 22-24 25-27 28-31 32-34 35-37 "
            "38-39 40-None"
        ),
        "rects": 42,
        "size_bits": 306208,
        "digest": "40fa8945ac56ae6fe95827af2ffaba13fc195e6a527f1c9ec10d8229711e205f",
    },
    "geolife": {
        "actions": (
            "inrnrnrnrnrnrnrnrnrnrnrrrnrnrnrnrnrnrnrnrnrrnrnrnrrrrrrrnrrrrrrnrrnrrr"
            "rrrrrrrnrn"
        ),
        "periods": (
            "1-2 3-4 5-6 7-8 9-10 11-12 13-14 15-16 17-18 19-20 21-22 23-23 24-24 "
            "25-26 27-28 29-30 31-32 33-34 35-36 37-38 39-40 41-42 43-43 44-45 "
            "46-47 48-49 50-50 51-51 52-52 53-53 54-54 55-55 56-57 58-58 59-59 "
            "60-60 61-61 62-62 63-64 65-65 66-67 68-68 69-69 70-70 71-71 72-72 "
            "73-73 74-74 75-75 76-76 77-78 79-None"
        ),
        "rects": 502,
        "size_bits": 351901,
        "digest": "06ef41e1594afad296cd618ab4a68eb6f40437dd7059016644f89423450d442f",
    },
}

LETTER = {"initial": "i", "re-build": "r", "insertion": "n", "append": "a"}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def quick_stream(request):
    """Push a quick-scale dataset one timestep at a time, rows ordered by
    (t, traj_id) as the streaming benchmark orders them."""
    cfg = config.get("quick")
    pts = cfg.dataset(request.param).load()
    pts = pts.sort_values(["t", "traj_id"], kind="mergesort")
    tpi = TPI(eps_d=cfg.eps_d, eps_c=cfg.eps_c, eps_s=cfg.eps_s, gc=cfg.gc, seed=cfg.seed)
    actions = "".join(
        LETTER[tpi.push(int(t), b.traj_id.to_numpy(), b.x.to_numpy(), b.y.to_numpy())]
        for t, b in pts.groupby("t", sort=True)
    )
    return GOLDEN[request.param], tpi, actions


def _cell_digest(tpi: TPI) -> str:
    h = hashlib.sha256()
    for pidx, p in enumerate(tpi.periods):
        for key in sorted(p.pi.cells):
            for t in sorted(p.pi.cells[key]):
                e = p.pi.cells[key][t]
                rec = (
                    pidx, key, t, e.data.hex(), e.n_ids, sorted(e.lengths.items()),
                    e.encoded_bits,
                )
                h.update(repr(rec).encode())
    return h.hexdigest()


def test_actions_match_golden(quick_stream):
    golden, _, actions = quick_stream
    assert actions == golden["actions"]


def test_periods_match_golden(quick_stream):
    golden, tpi, _ = quick_stream
    assert " ".join(f"{p.ts}-{p.te}" for p in tpi.periods) == golden["periods"]


def test_rects_and_size_match_golden(quick_stream):
    golden, tpi, _ = quick_stream
    assert sum(len(p.pi.rects) for p in tpi.periods) == golden["rects"]
    assert tpi.size_bits() == golden["size_bits"]


def test_cells_match_golden(quick_stream):
    golden, tpi, _ = quick_stream
    assert _cell_digest(tpi) == golden["digest"]


def test_cell_keys_and_codebooks_are_python_ints(quick_stream):
    _, tpi, _ = quick_stream
    for p in tpi.periods:
        for key, per_t in p.pi.cells.items():
            assert all(type(k) is int for k in key)
            for enc in per_t.values():
                assert all(type(s) is int for s in enc.lengths)

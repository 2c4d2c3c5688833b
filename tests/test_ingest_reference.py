"""The batched TPI ingest against the loop versions it replaced.

Each ``_ref_*`` function below is the per-list, per-point or per-cluster
loop that the batched code replaced, kept here as the reference. The
arithmetic is unchanged, so results must be equal, not close: the same
bytes, the same cell keys, the same labels, centroids and rounds.
"""
import heapq
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.pi as pi_mod
from repro.core.kmeans import _set_means, _violating_clusters, grow_partition, kmeans
from repro.index.idcodec import EncodedIds, decode_ids, encode_id_lists, encode_ids
from repro.index.pi import PI
from repro.index.rectangles import Rect


# ------------------------------------------------------------- ID codec
def _ref_huffman_lengths(freqs):
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    heap = [(f, i, (s,)) for i, (s, f) in enumerate(sorted(freqs.items()))]
    heapq.heapify(heap)
    lengths = {s: 0 for s in freqs}
    counter = len(heap)
    while len(heap) > 1:
        fa, _, sa = heapq.heappop(heap)
        fb, _, sb = heapq.heappop(heap)
        for s in sa + sb:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, counter, sa + sb))
        counter += 1
    return lengths


def _ref_encode_ids(ids):
    """The NumPy per-list encoder."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    if len(ids) == 0:
        return EncodedIds(data=b"", n_ids=0, lengths={}, encoded_bits=0)
    deltas = np.diff(ids, prepend=np.int64(0))
    lengths = _ref_huffman_lengths(dict(Counter(int(d) for d in deltas)))
    code, prev_len, codes = 0, 0, {}
    for s, ln in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= ln - prev_len
        codes[s] = (code, ln)
        code += 1
        prev_len = ln
    acc = nbits = 0
    for d in deltas:
        c, ln = codes[int(d)]
        acc = (acc << ln) | c
        nbits += ln
    pad = (-nbits) % 8
    acc <<= pad
    data = acc.to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return EncodedIds(data=data, n_ids=len(ids), lengths=lengths, encoded_bits=nbits)


def _assert_same_encoding(got, want):
    assert got == want
    assert all(type(s) is int for s in got.lengths)
    assert type(got.data) is bytes


_ID = st.integers(0, 2**40)
_PROGRESSION = st.builds(
    lambda a, d, n: [a + i * d for i in range(n)],
    st.integers(0, 2**40), st.integers(0, 2**20), st.integers(1, 40),
)
_ID_LIST = st.one_of(
    st.lists(_ID, max_size=30),
    st.lists(st.integers(0, 12), max_size=30),  # duplicates, small deltas
    st.lists(st.sampled_from([0, 2**40]), max_size=10),
    _PROGRESSION,  # one repeated delta
    st.just([]),
)


class TestEncodeIdLists:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ID_LIST, max_size=12))
    def test_matches_per_list_encoder(self, lists):
        flat = np.array([i for lst in lists for i in sorted(lst)], dtype=np.int64)
        starts = np.cumsum([0] + [len(lst) for lst in lists[:-1]]).astype(np.int64)
        got = encode_id_lists(flat, starts if lists else np.zeros(0, dtype=np.int64))
        assert len(got) == len(lists)
        for enc, lst in zip(got, lists):
            want = _ref_encode_ids(lst)
            _assert_same_encoding(enc, want)
            _assert_same_encoding(encode_ids(np.array(lst, dtype=np.int64)), want)
            _assert_same_encoding(encode_ids(lst), want)
            assert decode_ids(enc).tolist() == sorted(lst)

    def test_no_lists(self):
        assert encode_id_lists(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64])
    def test_one_symbol_closed_form(self, n):
        ids = np.arange(1, n + 1) * 5  # deltas 5, 5, ..., 5
        (enc,) = encode_id_lists(ids, np.array([0]))
        assert enc == EncodedIds(data=bytes((n + 7) // 8), n_ids=n, lengths={5: 1}, encoded_bits=n)
        _assert_same_encoding(enc, _ref_encode_ids(ids))


# ------------------------------------------------------------- PI ingest
def _ref_rect_of(pi, xs, ys):
    out = np.full(len(xs), -1, dtype=np.int64)
    for ri, r in enumerate(pi.rects):
        out[(out == -1) & r.contains_many(xs, ys)] = ri
    return out


def _ref_add_points(pi, t, ids, xs, ys):
    """The per-point bucketing loop with one encoder call per cell."""
    ri = _ref_rect_of(pi, xs, ys)
    covered = ri >= 0
    buckets = {}
    for i in np.flatnonzero(covered):
        r = pi.rects[ri[i]]
        key = (int(ri[i]), int((xs[i] - r.x0) // pi.gc), int((ys[i] - r.y0) // pi.gc))
        buckets.setdefault(key, []).append(int(ids[i]))
    for key, lst in buckets.items():
        pi.cells.setdefault(key, {})[t] = _ref_encode_ids(np.asarray(lst))
    return ~covered


_COORD = st.floats(-3.0, 3.0, allow_nan=False, width=64)


@st.composite
def _pi_and_points(draw):
    """Rectangles (overlapping ones too: the first hit wins) and points on
    rectangle edges, on cell edges, inside, and outside every rectangle."""
    gc = draw(st.sampled_from([0.0009, 0.1, 0.25, 0.3, 1.0]))
    rects = []
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(_COORD), draw(_COORD)
        w, h = draw(st.floats(1e-6, 2.0)), draw(st.floats(1e-6, 2.0))
        rects.append(Rect(x0, y0, x0 + w, y0 + h))
    edges_x = [v for r in rects for v in (r.x0, r.x1)] or [0.0]
    edges_y = [v for r in rects for v in (r.y0, r.y1)] or [0.0]
    cell_x = [r.x0 + k * gc for r in rects for k in range(4)] or [0.0]
    cell_y = [r.y0 + k * gc for r in rects for k in range(4)] or [0.0]
    x = st.one_of(_COORD, st.sampled_from(edges_x), st.sampled_from(cell_x), st.just(50.0))
    y = st.one_of(_COORD, st.sampled_from(edges_y), st.sampled_from(cell_y), st.just(-50.0))
    n = draw(st.integers(0, 60))
    xs = np.array([draw(x) for _ in range(n)], dtype=np.float64)
    ys = np.array([draw(y) for _ in range(n)], dtype=np.float64)
    ids = np.array(draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        ids %= 8  # several IDs, and repeats, in one cell
    return gc, rects, ids, xs, ys


class TestAddPoints:
    @settings(max_examples=300, deadline=None)
    @given(_pi_and_points(), st.sampled_from([1 << 20, 5]))
    def test_matches_per_point_loop(self, case, max_pairs):
        gc, rects, ids, xs, ys = case
        got, want = PI(gc=gc, rects=list(rects)), PI(gc=gc, rects=list(rects))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pi_mod, "_MAX_PAIRS", max_pairs)  # 5: rect_of in many chunks
            assert np.array_equal(got.rect_of(xs, ys), _ref_rect_of(want, xs, ys))
            uncov = got.add_points(3, ids, xs, ys)
            # a second timestep reuses existing cells
            uncov2 = got.add_points(4, ids[::-1], xs[::-1], ys[::-1])
        assert np.array_equal(uncov, _ref_add_points(want, 3, ids, xs, ys))
        assert np.array_equal(uncov2, _ref_add_points(want, 4, ids[::-1], xs[::-1], ys[::-1]))
        assert got.cells == want.cells
        for key in got.cells:
            assert all(type(k) is int for k in key)

    def test_precomputed_rect_index(self):
        pi = PI(gc=0.5, rects=[Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)])
        xs, ys = np.array([0.2, 1.7, 5.0]), np.array([0.2, 0.9, 5.0])
        ref = PI(gc=0.5, rects=list(pi.rects))
        uncov = pi.add_points(1, np.arange(3), xs, ys, pi.rect_of(xs, ys))
        assert np.array_equal(uncov, _ref_add_points(ref, 1, np.arange(3), xs, ys))
        assert pi.cells == ref.cells

    def test_rect_sizes_follow_extend(self):
        a = PI(gc=0.5, rects=[Rect(0, 0, 1, 1)])
        b = PI(gc=0.5, rects=[Rect(3, 3, 4.2, 3.1)])
        a.extend(b)
        assert a.rect_sizes().tolist() == [4, 3]
        assert a.rect_of(np.array([3.5]), np.array([3.05])).tolist() == [1]


# ------------------------------------------------------------- k-means
def _ref_kmeans(pts, k, *, seed=0, iters=10):
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    k = max(1, min(k, n))
    if k == 1:
        return np.zeros(n, dtype=np.int64), pts.mean(axis=0, keepdims=True)
    g = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[g.integers(0, n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = pts[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=np.int64)
    for it in range(iters):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and it > 0:
            break
        labels = new_labels
        for j in range(k):
            m = labels == j
            if m.any():
                centroids[j] = pts[m].mean(axis=0)
    return labels, centroids


def _ref_split_two(pts, seed):
    labels, _ = _ref_kmeans(pts, 2, seed=seed, iters=8)
    if labels.min() == labels.max():
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        labels = (pts[:, axis] > np.median(pts[:, axis])).astype(np.int64)
        if labels.min() == labels.max():
            labels = np.zeros(len(pts), dtype=np.int64)
            labels[: len(pts) // 2] = 1
    return labels


def _ref_centroids_of(pts, labels):
    k = int(labels.max()) + 1
    centroids = np.zeros((k, pts.shape[1]))
    for j in range(k):
        m = labels == j
        if m.any():
            centroids[j] = pts[m].mean(axis=0)
    return centroids


def _ref_violating_clusters(pts, labels, centroids, eps):
    out = []
    for j in range(len(centroids)):
        m = labels == j
        if not m.any():
            continue
        d = np.sqrt(((pts[m] - centroids[j]) ** 2).sum(axis=1))
        if d.max() > eps and m.sum() > 1:
            out.append(j)
    return out


def _ref_grow_partition(pts, eps, *, seed=0):
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    labels = np.zeros(len(pts), dtype=np.int64)
    rounds = 0
    while True:
        centroids = _ref_centroids_of(pts, labels)
        viol = _ref_violating_clusters(pts, labels, centroids, eps)
        if not viol:
            return labels, centroids, rounds
        rounds += 1
        next_label = int(labels.max()) + 1
        for j in viol:
            m = labels == j
            if m.sum() <= 1:
                continue
            sub = _ref_split_two(pts[m], seed + rounds + j)
            idx = np.flatnonzero(m)
            labels[idx[sub == 1]] = next_label
            next_label += 1


@st.composite
def _point_sets(draw, min_size=1):
    """1-, 2- and 3-column points, plain or from a small pool of values
    (identical points), at lon/lat-like and unit scales; sometimes 1-D."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(min_size, 150))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    offset = draw(st.sampled_from([0.0, -8.6, 116.3]))
    pts = offset + scale * g.normal(size=(n, d))
    if draw(st.booleans()):
        pool = pts[: draw(st.integers(1, 4))]
        pts = pool[g.integers(0, len(pool), n)]
    if d == 1 and draw(st.booleans()):
        pts = pts[:, 0]
    return pts


class TestClusterStatistics:
    @settings(max_examples=200, deadline=None)
    @given(_point_sets(), st.data())
    def test_sums_and_violations_match_mask_loops(self, pts, data):
        pts = pts if pts.ndim == 2 else pts[:, None]
        k = data.draw(st.integers(1, 12))
        # labels with gaps: some clusters get no member, some exactly one
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=len(pts), max_size=len(pts))))
        centroids = np.zeros((int(labels.max()) + 1, pts.shape[1]))
        counts = _set_means(centroids, pts, labels)
        assert np.array_equal(centroids, _ref_centroids_of(pts, labels))
        assert counts.tolist() == np.bincount(labels).tolist()
        eps = data.draw(st.sampled_from([-1.0, 0.0, 1e-4, 0.5, 10.0]))
        got = _violating_clusters(pts, labels, centroids, counts, eps).tolist()
        assert got == _ref_violating_clusters(pts, labels, centroids, eps)

    @settings(max_examples=150, deadline=None)
    @given(_point_sets(), st.integers(1, 9), st.integers(0, 1000))
    def test_kmeans_matches_mask_loop(self, pts, k, seed):
        labels, cents = kmeans(pts, k, seed=seed)
        ref_labels, ref_cents = _ref_kmeans(pts, k, seed=seed)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(cents, ref_cents)

    @settings(max_examples=150, deadline=None)
    @given(_point_sets(), st.sampled_from([0.0, 1e-3, 0.3, 2.0]), st.integers(0, 1000))
    def test_grow_partition_matches_mask_loop(self, pts, eps, seed):
        labels, cents, rounds = grow_partition(pts, eps, seed=seed)
        ref_labels, ref_cents, ref_rounds = _ref_grow_partition(pts, eps, seed=seed)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(cents, ref_cents)
        assert rounds == ref_rounds

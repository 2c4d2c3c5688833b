"""Trajectory-ID list compression: delta encoding + canonical Huffman.

The paper compresses the trajectory IDs stored in each grid cell "by delta
encoding and Huffman codes" ([19, 22, 42]). We implement both for real:
sorted IDs are delta-encoded, the delta alphabet gets a Huffman code, and
``encode`` returns a real bitstring (as ``bytes``) plus the codebook needed
to invert it. Index-size accounting uses ``encoded_bits``.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np


def _huffman_lengths(freqs: dict[int, int]) -> dict[int, int]:
    """Code length per symbol via the standard heap construction."""
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


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Canonical Huffman: symbol -> (code, nbits), assigned in
    (length, symbol) order so the decoder can rebuild codes from lengths."""
    code = 0
    prev_len = 0
    out: dict[int, tuple[int, int]] = {}
    for s, ln in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= ln - prev_len
        out[s] = (code, ln)
        code += 1
        prev_len = ln
    return out


@dataclass
class EncodedIds:
    """A compressed sorted ID list."""

    data: bytes
    n_ids: int
    lengths: dict[int, int]  # delta symbol -> code length (the codebook)
    encoded_bits: int

    @property
    def total_bits(self) -> int:
        """Payload plus a (symbol, length) table entry per alphabet symbol."""
        return self.encoded_bits + len(self.lengths) * (32 + 6)


def encode_ids(ids: np.ndarray | list[int]) -> EncodedIds:
    """Delta + Huffman encode a list of trajectory IDs (any order).

    Plain Python, no NumPy call: the batched :func:`encode_id_lists` sends
    each list it has no closed form for through here.
    """
    ids = sorted(map(int, ids))
    if not ids:
        return EncodedIds(data=b"", n_ids=0, lengths={}, encoded_bits=0)
    deltas = [ids[0]] + [b - a for a, b in zip(ids, ids[1:])]
    lengths = _huffman_lengths(dict(Counter(deltas)))
    codes = _canonical_codes(lengths)
    acc = 0
    nbits = 0
    for d in deltas:
        c, ln = codes[d]
        acc = (acc << ln) | c
        nbits += ln
    pad = (-nbits) % 8
    acc <<= pad
    data = acc.to_bytes((nbits + pad) // 8, "big") if nbits else b""
    return EncodedIds(data=data, n_ids=len(ids), lengths=lengths, encoded_bits=nbits)


def encode_id_lists(ids: np.ndarray, starts: np.ndarray) -> list[EncodedIds]:
    """Encode many ID lists at once; same result as :func:`encode_ids` on each.

    ``ids`` holds the lists back to back, each sorted ascending, and list
    ``g`` starts at ``starts[g]`` (``starts`` ascending, first entry 0).
    A list whose deltas are all one symbol ``d`` -- every singleton, and
    runs such as ``d, 2d, 3d`` -- has the one-symbol Huffman code: length
    1, code ``0``, so ``n`` zero bits padded to whole bytes. Those lists
    are built from that closed form; the others go through
    :func:`encode_ids`.
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.diff(starts, append=len(ids))
    nonempty = sizes > 0
    first = np.zeros(len(starts), dtype=np.int64)
    first[nonempty] = ids[starts[nonempty]]
    deltas = np.diff(ids, prepend=np.int64(0))
    deltas[starts[nonempty]] = first[nonempty]
    group = np.repeat(np.arange(len(starts)), sizes)
    mixed = np.bincount(group[deltas != first[group]], minlength=len(starts)) > 0
    flat = ids.tolist()
    out = []
    for s, n, d, m in zip(starts.tolist(), sizes.tolist(), first.tolist(), mixed.tolist()):
        if m or not n:
            out.append(encode_ids(flat[s : s + n]))
        else:
            out.append(EncodedIds(data=bytes((n + 7) // 8), n_ids=n, lengths={d: 1}, encoded_bits=n))
    return out


def decode_ids(enc: EncodedIds) -> np.ndarray:
    """Invert :func:`encode_ids`."""
    if enc.n_ids == 0:
        return np.zeros(0, dtype=np.int64)
    codes = _canonical_codes(enc.lengths)
    # decode table: (nbits, code) -> symbol
    table = {(ln, c): s for s, (c, ln) in codes.items()}
    bits = int.from_bytes(enc.data, "big")
    total = len(enc.data) * 8
    pos = 0  # bits consumed
    out = np.empty(enc.n_ids, dtype=np.int64)
    acc = 0
    ln = 0
    got = 0
    while got < enc.n_ids:
        pos += 1
        bit = (bits >> (total - pos)) & 1
        acc = (acc << 1) | bit
        ln += 1
        sym = table.get((ln, acc))
        if sym is not None:
            out[got] = sym
            got += 1
            acc = 0
            ln = 0
    return np.cumsum(out)

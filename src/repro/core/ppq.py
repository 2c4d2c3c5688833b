"""PPQ: partition-wise predictive quantization (paper Section 3.2) and the
summary object shared by every experiment harness.

``run_ppq`` drives the online pipeline timestep by timestep:

  1. compute partition features (spatial position for PPQ-S, fitted AR(k)
     parameters for PPQ-A) and update the incremental partitioner;
  2. run one E-PQ step per partition (own predictor coefficients P_j[t]
     and own codebook per partition, Eq. 5-6);
  3. optionally CQC-encode the residual of every point (Section 4).

Variants of the paper map to arguments:

  =================  ==========================================
  PPQ-A              mode='A', use_cqc=True
  PPQ-A-basic        mode='A', use_cqc=False
  PPQ-S              mode='S', use_cqc=True
  PPQ-S-basic        mode='S', use_cqc=False
  E-PQ               mode=None (single partition), use_cqc=False
  Q-trajectory       mode=None, predict=False, use_cqc=False
  =================  ==========================================
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro import DEG_TO_M
from repro.core.cqc import CQCCoder
from repro.core.epq import EPQEngine
from repro.core.partitioning import IncrementalPartitioner, UpdateStats, ar_features
from repro.core.predictor import DEFAULT_K, History, occurrence_rounds

CODED_COLUMNS = [
    "traj_id", "t", "x", "y", "pid", "code", "xhat", "yhat", "xrec", "yrec", "cqc",
]


@dataclass
class Summary:
    """The PPQ-trajectory summary: everything needed to reproduce points.

    ``coded`` holds one row per input point with the codebook
    reconstruction (xhat, yhat) and the CQC-corrected reconstruction
    (xrec, yrec) -- identical when CQC is disabled. The summary *storage*
    is the codebooks + coefficients + per-point code indexes + CQC codes;
    the reconstruction columns are materialised for convenience (they are
    a pure function of the stored parts, verified by tests).
    """

    coded: pd.DataFrame
    codebooks: dict[int, np.ndarray]
    codebooks_t: dict[tuple[int, int], np.ndarray]
    coeffs: dict[tuple[int, int], np.ndarray]
    cqc: CQCCoder | None
    config: dict
    build_seconds: float
    partition_stats: list[UpdateStats] = field(default_factory=list)
    _paths: dict[int, pd.DataFrame] | None = None

    # ---------------- quality ----------------
    def errors_m(self) -> np.ndarray:
        """Per-point deviation ||true - reconstructed||_2 in meters."""
        dx = (self.coded.x - self.coded.xrec).to_numpy()
        dy = (self.coded.y - self.coded.yrec).to_numpy()
        return np.sqrt(dx * dx + dy * dy) * DEG_TO_M

    def mae_m(self) -> float:
        """Mean absolute (Euclidean) error of the summary, meters."""
        return float(self.errors_m().mean())

    # ---------------- size accounting ----------------
    @property
    def n_points(self) -> int:
        return len(self.coded)

    def n_codewords(self) -> int:
        """Total codewords across partitions (and timestamps, if per-t)."""
        total = sum(len(cb) for cb in self.codebooks.values())
        total += sum(len(cb) for cb in self.codebooks_t.values())
        return int(total)

    def summary_bits(self) -> int:
        """Storage cost of the summary in bits (DESIGN.md accounting):
        codewords (2 x float32), per-point codeword indexes, per-partition
        per-timestep coefficients, partition-assignment runs, CQC codes.
        """
        bits = self.n_codewords() * 2 * 32
        # per-point code index: log2 of its codebook's size
        sizes_global = {pid: max(1, len(cb)) for pid, cb in self.codebooks.items()}
        if self.codebooks_t:
            sizes_t = {key: max(1, len(cb)) for key, cb in self.codebooks_t.items()}
            pid_t = zip(self.coded.pid.to_numpy(), self.coded.t.to_numpy())
            bits += int(
                sum(max(1, math.ceil(math.log2(sizes_t.get((p, t), 1)))) for p, t in pid_t)
            )
        else:
            per_pid_bits = {
                pid: max(1, math.ceil(math.log2(v))) for pid, v in sizes_global.items()
            }
            counts = self.coded.pid.value_counts()
            bits += int(sum(per_pid_bits.get(pid, 1) * c for pid, c in counts.items()))
        bits += len(self.coeffs) * self.config.get("k", DEFAULT_K) * 32
        # partition assignment: one (traj, pid) record per contiguous run
        runs = (
            self.coded.sort_values(["traj_id", "t"])
            .groupby("traj_id")["pid"]
            .apply(lambda s: int((s != s.shift()).sum()))
            .sum()
        )
        bits += int(runs) * 32
        if self.cqc is not None:
            bits += self.n_points * self.cqc.code_bits
        return int(bits)

    def compression_ratio(self) -> float:
        """raw bits (2 x float64 per point) / summary bits."""
        return (self.n_points * 2 * 64) / max(1, self.summary_bits())

    # ---------------- reconstruction access ----------------
    def _path_index(self) -> dict[int, pd.DataFrame]:
        if self._paths is None:
            self._paths = {
                int(tid): g.sort_values("t").set_index("t")
                for tid, g in self.coded.groupby("traj_id")
            }
        return self._paths

    def path(self, traj_id: int, t0: int, l: int) -> pd.DataFrame:
        """Reconstructed sub-trajectory rows for t in [t0, t0 + l]."""
        g = self._path_index().get(int(traj_id))
        if g is None:
            return pd.DataFrame(columns=["x", "y", "xrec", "yrec"])
        return g.loc[(g.index >= t0) & (g.index <= t0 + l)]


def run_ppq(
    points: pd.DataFrame,
    *,
    mode: str | None = "A",
    predict: bool = True,
    use_cqc: bool = True,
    eps1: float = 0.001,
    eps_p: float = 0.05,
    gs: float | None = None,
    k: int = DEFAULT_K,
    seed: int = 0,
    codebook_mode: str = "global",
    fixed_bits: int | None = None,
    budget_t: dict[int, int] | None = None,
    quantizer_style: str = "kmeans",
    ar_window: int = 16,
    ar_ema: float = 0.3,
) -> Summary:
    """Build the PPQ-trajectory summary over ``points`` (traj_id, t, x, y).

    ``mode`` is 'A' (autocorrelation partitions), 'S' (spatial) or None
    (single partition). ``fixed_bits`` (with codebook_mode='fixed') gives
    every timestamp a total budget of 2**fixed_bits codewords, split
    across partitions proportionally to their sizes (Table 4's setup).
    ``budget_t`` overrides the per-timestamp budget explicitly (Table 2's
    "same number of codewords at the same time across all methods").
    """
    if mode not in ("A", "S", None):
        raise ValueError(f"unknown mode {mode!r}")
    t_start = time.perf_counter()
    gs = gs if gs is not None else eps1 * 0.45
    cqc = CQCCoder(eps1, gs) if use_cqc else None

    pts_sorted = points.sort_values(["t", "traj_id"], kind="mergesort")
    shared_history = History(k)
    partitioner = IncrementalPartitioner(eps_p=eps_p, seed=seed) if mode else None
    engines: dict[int, EPQEngine] = {}
    retired_engines: dict[int, EPQEngine] = {}  # per_t/fixed history keeper
    code_remap: dict[int, tuple[int, int]] = {}  # src pid -> (dst pid, offset)
    if mode == "A":
        # PPQ-A state, one slot per trajectory: the last ar_window raw
        # points (right-aligned, oldest first), how many of them are
        # filled, and the EMA-smoothed AR features. The EMA may start at
        # zero: at a trajectory's first point its window is empty, so its
        # AR fit is the zero vector anyway.
        traj_ids = np.unique(pts_sorted.traj_id.to_numpy())
        n_traj = len(traj_ids)
        raw_win = np.zeros((n_traj, ar_window, 2))
        raw_len = np.zeros(n_traj, dtype=np.int64)
        ar_ema_state = np.zeros((n_traj, k))
    part_stats: list[UpdateStats] = []

    out_rows: list[pd.DataFrame] = []
    budget_total = (2**fixed_bits) if fixed_bits is not None else None

    for t, batch in pts_sorted.groupby("t", sort=True):
        ids = batch.traj_id.to_numpy()
        xy = batch[["x", "y"]].to_numpy(dtype=np.float64)

        if mode == "S":
            feats = xy
        elif mode == "A":
            # lag-k autocorrelation features, EMA-smoothed over time: the
            # AR parameters of a trajectory are a slowly varying property,
            # and smoothing keeps estimation noise from churning the
            # partitions (splits immediately undone by merges).
            slots = np.searchsorted(traj_ids, ids)
            a = ar_features(raw_win[slots], k, lengths=raw_len[slots])
            feats = np.empty((len(ids), k))
            for rows in occurrence_rounds(slots):
                s = slots[rows]
                sm = (1 - ar_ema) * ar_ema_state[s] + ar_ema * a[rows]
                ar_ema_state[s] = sm
                feats[rows] = sm
        else:
            feats = None

        if partitioner is not None:
            n_merges_before = len(partitioner.merge_events)
            pids, stats = partitioner.update(ids, feats)
            part_stats.append(stats)
            # Partition merges carry their codebooks along (Section 3.2.2):
            # in global-codebook mode the target quantizer absorbs the
            # source's codewords and the source's already-emitted codes are
            # remapped at the end. In per-t / fixed modes codes reference
            # (pid, t) codebooks, so the source engine is simply retired.
            for src, dst in partitioner.merge_events[n_merges_before:]:
                src_eng = engines.pop(src, None)
                if src_eng is None:
                    continue
                if codebook_mode != "global":
                    retired_engines[src] = src_eng
                    continue
                dst_eng = engines.get(dst)
                if dst_eng is None:
                    engines[dst] = src_eng  # target had no engine: adopt
                    code_remap[src] = (dst, 0)
                    continue
                offset = dst_eng.quantizer.absorb(src_eng.quantizer)
                code_remap[src] = (dst, offset)
                retired_engines[src] = src_eng
        else:
            pids = np.zeros(len(ids), dtype=np.int64)

        codes = np.empty(len(ids), dtype=np.int64)
        recon = np.empty((len(ids), 2))
        uniq, counts = np.unique(pids, return_counts=True)
        bt = budget_t.get(int(t)) if budget_t is not None else budget_total
        budgets = _split_budget(bt, uniq, counts)
        for pid in uniq:
            engine = engines.get(int(pid))
            if engine is None:
                engine = EPQEngine(
                    eps1,
                    k=k,
                    seed=seed + 7919 * (int(pid) + 1),
                    predict_enabled=predict,
                    history=shared_history,
                    codebook_mode=codebook_mode,
                    quantizer_style=quantizer_style,
                )
                engines[int(pid)] = engine
            m = pids == pid
            res = engine.step(int(t), ids[m], xy[m], budget=budgets.get(int(pid)))
            codes[m] = res.codes
            recon[m] = res.recon

        if cqc is not None:
            cqc_codes = cqc.encode(xy - recon)
            rec2 = cqc.correct(recon, cqc_codes)
        else:
            cqc_codes = np.full(len(ids), -1, dtype=np.int64)
            rec2 = recon

        out_rows.append(
            pd.DataFrame(
                {
                    "traj_id": ids.astype(np.int64),
                    "t": np.full(len(ids), int(t), dtype=np.int32),
                    "x": xy[:, 0],
                    "y": xy[:, 1],
                    "pid": pids.astype(np.int64),
                    "code": codes,
                    "xhat": recon[:, 0],
                    "yhat": recon[:, 1],
                    "xrec": rec2[:, 0],
                    "yrec": rec2[:, 1],
                    "cqc": cqc_codes,
                }
            )
        )

        if mode == "A" and ar_window:
            for rows in occurrence_rounds(slots):
                s = slots[rows]
                raw_win[s, :-1] = raw_win[s, 1:]
                raw_win[s, -1] = xy[rows]
                raw_len[s] = np.minimum(raw_len[s] + 1, ar_window)

    coded = pd.concat(out_rows, ignore_index=True)
    if code_remap:
        _apply_code_remap(coded, code_remap)
    codebooks: dict[int, np.ndarray] = {}
    codebooks_t: dict[tuple[int, int], np.ndarray] = {}
    coeffs: dict[tuple[int, int], np.ndarray] = {}
    for pid, eng in engines.items():
        if codebook_mode == "global":
            codebooks[pid] = eng.quantizer.codebook
        else:
            for t, cb in eng.codebooks_t.items():
                codebooks_t[(pid, t)] = cb
        for t, c in eng.coeffs.items():
            coeffs[(pid, t)] = c
    for pid, eng in retired_engines.items():
        # per-t/fixed codebooks of merged-away partitions are still
        # referenced by old codes; global-mode retired codebooks were
        # absorbed into their merge target.
        if codebook_mode != "global":
            for t, cb in eng.codebooks_t.items():
                codebooks_t[(pid, t)] = cb
        for t, c in eng.coeffs.items():
            coeffs.setdefault((pid, t), c)

    return Summary(
        coded=coded,
        codebooks=codebooks,
        codebooks_t=codebooks_t,
        coeffs=coeffs,
        cqc=cqc,
        config={
            "mode": mode,
            "predict": predict,
            "use_cqc": use_cqc,
            "eps1": eps1,
            "eps_p": eps_p,
            "gs": gs,
            "k": k,
            "codebook_mode": codebook_mode,
            "fixed_bits": fixed_bits,
        },
        build_seconds=time.perf_counter() - t_start,
        partition_stats=part_stats,
    )


def _apply_code_remap(coded: pd.DataFrame, remap: dict[int, tuple[int, int]]) -> None:
    """Rewrite (pid, code) of merged-away partitions to their merge target
    (following chains), in place. Global-codebook mode only."""
    pid_arr = coded["pid"].to_numpy().copy()
    code_arr = coded["code"].to_numpy().copy()
    resolved: dict[int, tuple[int, int]] = {}
    for src in remap:
        pid, off = src, 0
        while pid in remap:
            dst, o = remap[pid]
            off += o
            pid = dst
        resolved[src] = (pid, off)
    for src, (dst, off) in resolved.items():
        m = pid_arr == src
        if m.any():
            code_arr[m] += off
            pid_arr[m] = dst
    coded["pid"] = pid_arr
    coded["code"] = code_arr


def _split_budget(
    total: int | None, pids: np.ndarray, counts: np.ndarray
) -> dict[int, int]:
    """Split a per-timestep codeword budget across partitions by size."""
    if total is None:
        return {}
    n = counts.sum()
    alloc = {int(p): max(1, int(round(total * c / n))) for p, c in zip(pids, counts)}
    return alloc

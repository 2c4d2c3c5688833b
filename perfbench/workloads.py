"""The three single-process workloads: two summary builds with a query
batch, and the TPI stream. Each is a closed loop with one client.

A workload has a ``setup`` (input generation and query sampling, timed
as ``setup_s``), a ``prepare`` (the oracle's lookup tables, untimed), an
end-to-end ``measure`` (untraced) and a ``unit`` of fixed work that the
traced run executes once untraced and once traced.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core import ppq
from repro.harness import config
from repro.index import disk, tpi as tpi_mod
from repro.queries import strq, tpq

from perfbench import checks
from perfbench.checks import Outcome
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import NullTracer

TPQ_L = 10
#: queries drawn per run; the loop cycles through them. The first
#: MIN_ROUNDS rounds (MIN_ROUNDS * QUERY_BLOCK queries) reach all of them,
#: so every run of a seed checks the same outputs
POOL = 4000
#: a run repeats rounds (one build or stream, then one query block) for
#: --seconds, and at least this many times
MIN_ROUNDS = 3
#: STRQ+TPQ pairs per round, run in sub-blocks that are each bracketed
#: by the host-speed kernel
QUERY_BLOCK = 1500
QUERY_SUBBLOCKS = 3
#: queries of each kind in the traced run's fixed unit of work
TRACE_QUERIES = 600
#: STRQ lookups after each pushed timestep. Each is at a point drawn
#: uniformly from all points pushed so far, as ``strq.sample_queries``
#: draws uniformly from all points of a built index. The ratio is this
#: benchmark's choice: 8 x 300 timesteps = 2,400 lookups per stream, six
#: times the bench-scale query batch of the paper's Table 9 harness, so
#: that the p99 has enough samples.
TPI_LOOKUPS_PER_STEP = 8
#: timesteps of the stream between two runs of the host-speed kernel
STREAM_SEGMENT = 30


def percentile_ms(samples_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_s), q) * 1e3) if samples_s else 0.0


@dataclass
class Rounds:
    """Build (or stream) times and query latencies of one run, each scaled
    by the host-speed factor measured around its round or query block
    (``hostspeed``)."""

    build_s: list[float] = field(default_factory=list)
    build_wall_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: per query block: the median of its scaled latencies
    block_medians: dict[str, list[float]] = field(default_factory=dict)
    wall_samples: dict[str, list[float]] = field(default_factory=dict)
    factors: list[float] = field(default_factory=list)

    def add_build(self, wall_s: float, factor: float) -> None:
        self.build_wall_s.append(wall_s)
        self.build_s.append(wall_s * factor)
        self.factors.append(factor)

    def add(self, kind: str, samples_s: list[float], factor: float) -> None:
        self.wall_samples.setdefault(kind, []).extend(samples_s)
        self.samples.setdefault(kind, []).extend(x * factor for x in samples_s)
        self.block_medians.setdefault(kind, []).append(float(np.median(samples_s)) * factor)
        self.factors.append(factor)

    def rate(self, n_points: int) -> float:
        return n_points / float(np.median(self.build_s))

    def ms(self, kind: str, q: float) -> float:
        """The q-th percentile of every query of the run."""
        return percentile_ms(self.samples.get(kind, []), q)

    def p50_ms(self, kind: str) -> float:
        """Median over query blocks of each block's median, so that one
        block whose host-speed factor is off does not shift it."""
        return percentile_ms(self.block_medians.get(kind, []), 50)

    def tail_pct(self, kind: str) -> float:
        """p99, or with fewer than 1,000 samples the highest percentile
        that still has 10 samples beyond it (~p78 for Spark's ~45)."""
        return min(99.0, 100.0 * (1 - 10 / max(20, len(self.samples.get(kind, [])))))

    def record(self) -> dict:
        """Raw figures for the report: wall times and host-speed factors."""
        out = {
            "rounds": len(self.build_s),
            "build_wall_s": self.build_wall_s,
            "host_speed_factors": self.factors,
        }
        for kind, xs in self.wall_samples.items():
            out[f"{kind}_queries"] = len(xs)
            out[f"{kind}_tail_percentile"] = self.tail_pct(kind)
            for q in (50, 99):
                out[f"{kind}_wall_p{q}_ms"] = percentile_ms(xs, q)
        return out


# ------------------------------------------------------------ summary builds
@dataclass
class SummaryInputs:
    points: pd.DataFrame
    strq_pool: list[tuple[int, int, float, float]]
    path_pool: list[tuple[int, int]]
    #: the TPQ oracle's table: each trajectory's raw points indexed by t
    raw_paths: dict[int, pd.DataFrame] = field(default_factory=dict)


class SummaryWorkload:
    """Build a PPQ summary, then answer STRQ (local search + verify) and
    TPQ (``Summary.path``) queries over it."""

    def __init__(self, name: str, scale: str, seed: int):
        self.name = name
        self.cfg = config.get(scale)
        self.seed = seed
        self.radius = (math.sqrt(2) / 2) * self.cfg.gs
        if name == "porto_ppqa_online":
            self.ds = self.cfg.dataset("porto")
            self.kwargs = dict(mode="A", eps_p=self.ds.eps_p_auto)
        elif name == "geolife_ppqs_fixed5":
            self.ds = self.cfg.dataset("geolife")
            self.kwargs = dict(
                mode="S", eps_p=self.ds.eps_p_spatial, codebook_mode="fixed", fixed_bits=5
            )
        else:
            raise ValueError(name)
        self.kwargs.update(use_cqc=True, eps1=self.cfg.eps1, gs=self.cfg.gs, seed=self.cfg.seed)
        self.inputs: SummaryInputs | None = None

    def setup(self) -> None:
        points = self.ds.load()
        sq = strq.sample_queries(points, POOL, seed=self.seed)
        pq = tpq.sample_path_queries(points, POOL, max_l=TPQ_L, seed=self.seed + 1)
        self.inputs = SummaryInputs(
            points=points,
            strq_pool=list(sq[["traj_id", "t", "x", "y"]].itertuples(index=False, name=None)),
            path_pool=list(pq[["traj_id", "t"]].itertuples(index=False, name=None)),
        )

    def prepare(self) -> None:
        self.inputs.raw_paths = {
            int(tid): g.set_index("t")[["x", "y"]].sort_index()
            for tid, g in self.inputs.points.groupby("traj_id")
        }

    def build(self) -> ppq.Summary:
        return ppq.run_ppq(self.inputs.points, **self.kwargs)

    def check_build(self, s: ppq.Summary, out: Outcome) -> None:
        out.record(checks.check_coded(s.coded, self.inputs.points, self.radius), "build", 0)

    def queries(self, s, out: Outcome, tracer, count: int, start: int = 0):
        """``count`` pairs of one STRQ and one TPQ query, each checked,
        from position ``start`` of the query pools. Returns per-query
        seconds (strq, tpq)."""
        inp = self.inputs
        gc = self.cfg.gc
        with tracer.span("strq.frame_by_t"):
            frames = {int(t): g for t, g in s.coded.groupby("t")}
        strq_s, tpq_s = [], []
        for i in range(start, start + count):
            qi = i % len(inp.strq_pool)
            _, t, x, y = inp.strq_pool[qi]
            frame = frames[t]
            t0 = time.perf_counter()
            ans = strq.strq_answer(frame, x, y, gc, dilate=self.radius, verify=True)
            strq_s.append(time.perf_counter() - t0)
            truth = strq.strq_truth(frame, x, y, gc)
            out.record(checks.check_strq(frame, ans, truth, self.radius), "strq", qi, f"t={t}")

            pi = i % len(inp.path_pool)
            tid, t = inp.path_pool[pi]
            t0 = time.perf_counter()
            rows = s.path(tid, t, TPQ_L)
            tpq_s.append(time.perf_counter() - t0)
            out.record(
                checks.check_path(rows, inp.raw_paths[tid], t, TPQ_L, self.radius),
                "tpq",
                pi,
                f"traj={tid} t={t}",
            )
        return strq_s, tpq_s

    def measure(self, seconds: float, speed: HostSpeed) -> tuple[dict, dict, Outcome]:
        out = Outcome()
        rounds = Rounds()
        start = time.perf_counter()
        sub = QUERY_BLOCK // QUERY_SUBBLOCKS
        done = 0
        while len(rounds.build_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            s, wall, factor = speed.timed(self.build)
            rounds.add_build(wall, factor)
            self.check_build(s, out)
            for _ in range(QUERY_SUBBLOCKS):
                (strq_s, tpq_s), _, factor = speed.timed(
                    self.queries, s, out, NullTracer(), sub, done
                )
                done += sub
                rounds.add("strq", strq_s, factor)
                rounds.add("tpq", tpq_s, factor)
        n = len(self.inputs.points)
        e2e = {
            "ingest_pts_per_s": rounds.rate(n),
            "strq_p50_ms": rounds.p50_ms("strq"),
            "strq_tail_ms": rounds.ms("strq", rounds.tail_pct("strq")),
            "query_exact_share": out.share_ok(("strq", "tpq")),
        }
        reported = {
            "compression_ratio": s.compression_ratio(),
            "mae_m": s.mae_m(),
            "bound_violation_rate": checks.bound_violations(s.coded, self.radius) / n,
            "query_error_rate": out.error_rate(("strq", "tpq")),
            "tpq_p50_ms": rounds.p50_ms("tpq"),
            "tpq_p99_ms": rounds.ms("tpq", 99),
            **rounds.record(),
        }
        return e2e, reported, out

    def unit(self, tracer, out: Outcome):
        """Fixed work for the traced run: one build and a query batch."""
        s = self.build()
        self.check_build(s, out)
        self.queries(s, out, tracer, TRACE_QUERIES)
        return s

    def counters(self, s: ppq.Summary) -> dict[str, float]:
        """Per-layer counts read from the built summary and a recount of
        STRQ candidates (outside the traced region)."""
        stats = s.partition_stats
        coded = s.coded
        cqc = s.cqc
        jx = np.rint((coded.x - coded.xhat).to_numpy() / cqc.gs)
        jy = np.rint((coded.y - coded.yhat).to_numpy() / cqc.gs)
        frames = {int(t): g for t, g in coded.groupby("t")}
        cands = useful = 0
        pool = self.inputs.strq_pool[:TRACE_QUERIES]
        for _, t, x, y in pool:
            frame = frames[t]
            cands += len(strq.strq_answer(frame, x, y, self.cfg.gc, dilate=self.radius))
            useful += len(
                strq.strq_answer(frame, x, y, self.cfg.gc, dilate=self.radius, verify=True)
            )
        return {
            "partitioning.splits": float(sum(st.n_resplit_partitions for st in stats)),
            "partitioning.merges": float(sum(st.n_merges for st in stats)),
            "partitioning.q_max": float(max((st.q for st in stats), default=0)),
            "quantizer.codewords": float(s.n_codewords()),
            "cqc.out_of_grid": float(((np.abs(jx) > cqc.m) | (np.abs(jy) > cqc.m)).sum()),
            "ppq.compression_ratio": s.compression_ratio(),
            "ppq.bound_violation_rate": checks.bound_violations(coded, self.radius) / len(coded),
            "strq.candidates_per_query": cands / len(pool),
            "strq.useful_ratio": useful / cands if cands else 0.0,
        }


# ------------------------------------------------------------- TPI stream
class TPIStreamWorkload:
    """Push every timestep into a TPI, each push followed by STRQ lookups
    at points already pushed; then lay the index out on pages and count
    the lookups' page I/Os."""

    def __init__(self, name: str, scale: str, seed: int):
        self.name = name
        self.cfg = config.get(scale)
        self.ds = self.cfg.dataset("geolife")
        self.seed = seed
        self.batches: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def setup(self) -> None:
        self.points = self.ds.load()

    def prepare(self) -> None:
        points = self.points.sort_values(["t", "traj_id"], kind="mergesort")
        self.n_points = len(points)
        self.batches = [
            (int(t), g.traj_id.to_numpy(), g.x.to_numpy(), g.y.to_numpy())
            for t, g in points.groupby("t", sort=True)
        ]
        # point j of the stream order is row row_in_step[j] of batch
        # step_of[j]; the first pushed[k] points are those pushed by step k
        sizes = np.array([len(ids) for _, ids, _, _ in self.batches])
        self.pushed = np.cumsum(sizes)
        self.step_of = np.repeat(np.arange(len(sizes)), sizes)
        self.row_in_step = np.arange(self.n_points) - (self.pushed - sizes)[self.step_of]

    def stream(self, out: Outcome, speed: HostSpeed | None = None):
        """One pass over the stream. It is cut into segments of
        ``STREAM_SEGMENT`` timesteps; each segment's push seconds and
        lookup latencies are returned with the host-speed factor of the
        kernel runs around it (1.0 without ``speed``)."""
        cfg = self.cfg
        tpi = tpi_mod.TPI(eps_d=cfg.eps_d, eps_c=cfg.eps_c, eps_s=cfg.eps_s, gc=cfg.gc, seed=cfg.seed)
        rng = np.random.default_rng(self.seed)
        actions: Counter[str] = Counter()
        lookups = []
        n_ids = 0
        segments: list[tuple[float, list[float], float]] = []
        seg_push, lookup_s = 0.0, []
        before = speed.kernel() if speed is not None else None
        for k, (t, ids, xs, ys) in enumerate(self.batches):
            t0 = time.perf_counter()
            actions[tpi.push(t, ids, xs, ys)] += 1
            seg_push += time.perf_counter() - t0
            for j in rng.integers(0, self.pushed[k], size=TPI_LOOKUPS_PER_STEP):
                tq, ids_q, xs_q, ys_q = self.batches[self.step_of[j]]
                p = self.row_in_step[j]
                x, y = float(xs_q[p]), float(ys_q[p])
                t0 = time.perf_counter()
                ans = tpi.query(x, y, tq)
                lookup_s.append(time.perf_counter() - t0)
                n_ids += len(ans)
                want = checks.tpi_truth(tpi, xs_q, ys_q, ids_q, x, y, tq)
                ok = np.array_equal(np.sort(ans), want)
                verdict = checks.OK if ok else checks.WRONG
                out.record(verdict, "lookup", len(lookups), f"t={tq} x={x} y={y}")
                lookups.append((x, y, tq))
            if (k + 1) % STREAM_SEGMENT == 0 or k + 1 == len(self.batches):
                factor = 1.0
                if speed is not None:
                    after = speed.kernel()
                    factor = speed.factor(before, after)
                    before = after
                segments.append((seg_push, lookup_s, factor))
                seg_push, lookup_s = 0.0, []
        if tpi.current is not None and tpi.current.te is None:
            tpi.current.te = self.batches[-1][0]
        store = disk.PageStore()
        disk.layout_tpi(tpi, store)
        io = disk.tpi_query_ios(tpi, store, np.asarray(lookups))
        return {
            "segments": segments,
            "tpi": tpi,
            "actions": actions,
            "lookups": len(lookups),
            "ids_returned": n_ids,
            "io": io,
            "store": store,
        }

    def measure(self, seconds: float, speed: HostSpeed) -> tuple[dict, dict, Outcome]:
        out = Outcome()
        rounds = Rounds()
        start = time.perf_counter()
        while len(rounds.build_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            last = self.stream(out, speed)
            push_s = sum(p for p, _, _ in last["segments"])
            push_scaled = sum(p * f for p, _, f in last["segments"])
            rounds.add_build(push_s, push_scaled / push_s)
            for _, lookup_s, factor in last["segments"]:
                rounds.add("strq", lookup_s, factor)
        rate = rounds.rate(self.n_points)
        e2e = {
            "ingest_pts_per_s": rate,
            "strq_p50_ms": rounds.p50_ms("strq"),
            "strq_tail_ms": rounds.ms("strq", rounds.tail_pct("strq")),
            "query_exact_share": out.share_ok(("lookup",)),
        }
        reported = {
            "index_ingest_pts_per_s": rate,
            "index_size_mb": last["tpi"].size_mb(),
            "ios_per_query": last["io"].total_ios / last["io"].n_queries,
            "query_error_rate": out.error_rate(("lookup",)),
            **rounds.record(),
        }
        return e2e, reported, out

    def unit(self, tracer, out: Outcome):
        return self.stream(out)

    def counters(self, r: dict) -> dict[str, float]:
        tpi = r["tpi"]
        encs = [
            enc for p in tpi.periods for per_t in p.pi.cells.values() for enc in per_t.values()
        ]
        n_ids = sum(e.n_ids for e in encs)
        return {
            "tpi.actions.initial": float(r["actions"]["initial"]),
            "tpi.actions.rebuild": float(r["actions"]["re-build"]),
            "tpi.actions.insertion": float(r["actions"]["insertion"]),
            "tpi.actions.append": float(r["actions"]["append"]),
            "tpi.periods": float(tpi.n_periods),
            "tpi.size_mb": tpi.size_mb(),
            "pi.ids_per_query": r["ids_returned"] / r["lookups"],
            "pi.rects": float(sum(len(p.pi.rects) for p in tpi.periods)),
            "idcodec.bits_per_id": sum(e.total_bits for e in encs) / n_ids if n_ids else 0.0,
            "disk.pages": float(r["store"].n_pages),
            "disk.ios_total": float(r["io"].total_ios),
        }

"""The distributed PPQ-S build and its STRQ/TPQ plans on local Spark.

The session start and two unchecked builds + query rounds (JVM and Python
worker warm-up) are part of set-up. Spark writes its scratch files under the
checkout (``perfbench/out``), and ``close`` stops the JVM and waits for it.
"""
from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np
import pandas as pd

import repro
from repro import DEG_TO_M
from repro.harness import config
from repro.queries import strq, tpq
# bound before the traced run wraps strq.strq_answer, so the oracle's own
# calls are not recorded as the program's
from repro.queries.strq import strq_answer as pandas_strq, strq_truth

from perfbench import checks
from perfbench.checks import Outcome
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import NullTracer
from perfbench.workloads import MIN_ROUNDS, POOL, TPQ_L, Rounds

SPARK_CORES = 2
#: STRQ+TPQ rounds in the traced run's fixed unit of work
TRACE_QUERIES = 5
#: each query is a Spark job of ~0.2 s (STRQ) or ~0.5 s (TPQ); STRQ runs
#: this many times per TPQ so its tail has enough samples
STRQ_PER_TPQ = 5
#: untimed builds and query rounds at set-up: the JVM JIT and Python
#: workers are still warming after the first
WARMUP_ROUNDS = 2
#: query rounds after each build, each bracketed by the host-speed kernel
QUERY_BLOCK = 3
#: distinct query rounds of a run: the first MIN_ROUNDS builds reach them
#: all and later builds repeat them, so every run of a seed checks the
#: same outputs
QUERY_ROUNDS = MIN_ROUNDS * QUERY_BLOCK


def start_session(scratch: str):
    """A local[2] session whose temp files stay under ``scratch``."""
    os.makedirs(scratch, exist_ok=True)
    # Python workers import the program from the same source tree
    src = str(Path(repro.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = scratch
    os.environ["SPARK_LOCAL_DIRS"] = scratch
    tempfile.tempdir = scratch
    # every JVM Spark starts: temp files here, no /tmp/hsperfdata
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", str(2 * SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, shut the JVM down and wait until it has exited."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None  # a later start relaunches
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class SparkBuildWorkload:
    def __init__(self, name: str, scale: str, seed: int, scratch: str):
        self.name = name
        self.cfg = config.get(scale)
        self.ds = self.cfg.dataset("porto")
        self.seed = seed
        self.scratch = scratch
        self.radius = (math.sqrt(2) / 2) * self.cfg.gs
        self.spark = None

    def setup(self) -> None:
        self.points = self.ds.load()
        sq = strq.sample_queries(self.points, POOL, seed=self.seed)
        pq = tpq.sample_path_queries(self.points, POOL, max_l=TPQ_L, seed=self.seed + 1)
        # TPQ starts from a true point (traj_id, t): its STRQ answer set
        pq = pq.merge(self.points, on=["traj_id", "t"])
        self.strq_pool = list(sq[["t", "x", "y"]].itertuples(index=False, name=None))
        self.tpq_pool = list(pq[["t", "x", "y"]].itertuples(index=False, name=None))

    def prepare(self) -> None:
        """Nothing to add: the oracle evaluates each build's collected rows."""

    def start(self) -> None:
        """One-time set-up: session, input DataFrame and warm-up rounds."""
        from repro.trajgen import to_spark

        self.spark = start_session(self.scratch)
        self.df = to_spark(self.spark, self.points)
        for _ in range(WARMUP_ROUNDS):
            coded, _ = self.build(NullTracer(), None)
            self.queries(coded, None, None, NullTracer(), 1)

    def close(self) -> None:
        if self.spark is not None:
            stop_session(self.spark)
            self.spark = None

    def build(self, tracer, out: Outcome | None):
        """Features + assignment + per-pid E-PQ/CQC, forced by a count.
        Returns the cached coded DataFrame and, unless ``out`` is None, its
        rows collected and checked by the oracle (outside the timed region
        of ``measure``)."""
        from repro.spark import pipeline

        self.spark.catalog.clearCache()  # drop the previous build
        self.df.cache().count()
        t0 = time.perf_counter()
        with_pid = pipeline.assign_partitions(
            self.spark, self.df, mode="S", eps_p=self.ds.eps_p_spatial, seed=self.cfg.seed
        )
        with tracer.span("spark.build"):
            coded, _ = pipeline.build_summary_spark(
                with_pid, eps1=self.cfg.eps1, gs=self.cfg.gs, seed=self.cfg.seed
            )
            coded.count()
        self.build_wall_s = time.perf_counter() - t0
        if out is None:
            return coded, None
        pdf = coded.toPandas()
        out.record(checks.check_coded(pdf, self.points, self.radius), "build", 0)
        return coded, pdf

    def queries(self, coded, pdf: pd.DataFrame | None, out: Outcome | None, tracer, count: int, start: int = 0):
        """``count`` rounds of ``STRQ_PER_TPQ`` ``strq_spark`` and one
        ``tpq_spark``, from round ``start`` of the query pools; each answer
        must equal the pandas evaluation of the same coded rows and the raw
        truth. With ``out`` None the answers are not checked."""
        from repro.spark.query_exec import strq_spark, tpq_spark

        gc = self.cfg.gc
        frames = {int(t): g for t, g in pdf.groupby("t")} if out is not None else None
        strq_s, tpq_s = [], []
        for i in range(start, start + count):
            for j in range(STRQ_PER_TPQ):
                qi = (i * STRQ_PER_TPQ + j) % len(self.strq_pool)
                t, x, y = self.strq_pool[qi]
                t0 = time.perf_counter()
                with tracer.span("spark.strq"):
                    got = strq_spark(
                        coded, x=x, y=y, t=t, gc=gc, local_search_radius=self.radius, verify=True
                    ).toPandas()
                strq_s.append(time.perf_counter() - t0)
                if out is not None:
                    ans = set(got.traj_id.tolist())
                    out.record(self._verdict_strq(frames[t], ans, x, y), "strq", qi, f"t={t}")

            pi = i % len(self.tpq_pool)
            t, x, y = self.tpq_pool[pi]
            t0 = time.perf_counter()
            with tracer.span("spark.tpq"):
                ids = strq_spark(
                    coded, x=x, y=y, t=t, gc=gc, local_search_radius=self.radius, verify=True
                )
                got = tpq_spark(coded, ids, t=t, l=TPQ_L).toPandas()
            tpq_s.append(time.perf_counter() - t0)
            if out is not None:
                out.record(self._verdict_tpq(frames, got, pdf, x, y, t), "tpq", pi, f"t={t}")
        return strq_s, tpq_s

    def _verdict_strq(self, frame, ans: set[int], x, y) -> str:
        gc = self.cfg.gc
        local = pandas_strq(frame, x, y, gc, dilate=self.radius, verify=True)
        if ans != local:
            return checks.WRONG
        return checks.check_strq(frame, ans, strq_truth(frame, x, y, gc), self.radius)

    def _verdict_tpq(self, frames, got: pd.DataFrame, pdf, x, y, t) -> str:
        ids = pandas_strq(frames[t], x, y, self.cfg.gc, dilate=self.radius, verify=True)
        want = pdf[pdf.traj_id.isin(ids) & (pdf.t > t) & (pdf.t <= t + TPQ_L)]
        want = want.sort_values(["traj_id", "t"])
        same = (
            len(got) == len(want)
            and np.array_equal(got.traj_id.to_numpy(), want.traj_id.to_numpy())
            and np.array_equal(got.t.to_numpy(), want.t.to_numpy())
            and np.array_equal(got.px.to_numpy(), want.xrec.to_numpy())
            and np.array_equal(got.py.to_numpy(), want.yrec.to_numpy())
        )
        if not same:
            return checks.WRONG
        raw = self.points[self.points.traj_id.isin(ids) & (self.points.t > t) & (self.points.t <= t + TPQ_L)]
        if len(raw) != len(want):
            return checks.WRONG
        return checks.BOUND if (checks.errors_deg(want) > self.radius * checks.RADIUS_SLACK).any() else checks.OK

    def measure(self, seconds: float, speed: HostSpeed) -> tuple[dict, dict, Outcome]:
        out = Outcome()
        rounds = Rounds()
        done = 0
        start = time.perf_counter()
        while len(rounds.build_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            (coded, pdf), _, factor = speed.timed(self.build, NullTracer(), out)
            rounds.add_build(self.build_wall_s, factor)
            for _ in range(QUERY_BLOCK):
                (strq_s, tpq_s), _, factor = speed.timed(
                    self.queries, coded, pdf, out, NullTracer(), 1, done
                )
                done = (done + 1) % QUERY_ROUNDS
                rounds.add("strq", strq_s, factor)
                rounds.add("tpq", tpq_s, factor)
        n = len(self.points)
        e2e = {
            "ingest_pts_per_s": rounds.rate(n),
            "strq_p50_ms": rounds.p50_ms("strq"),
            "strq_tail_ms": rounds.ms("strq", rounds.tail_pct("strq")),
            "query_exact_share": out.share_ok(("strq", "tpq")),
        }
        reported = {
            "mae_m": float(checks.errors_deg(pdf).mean() * DEG_TO_M),
            "bound_violation_rate": checks.bound_violations(pdf, self.radius) / n,
            "query_error_rate": out.error_rate(("strq", "tpq")),
            "tpq_p50_ms": rounds.p50_ms("tpq"),
            **rounds.record(),
        }
        return e2e, reported, out

    def unit(self, tracer, out: Outcome):
        coded, pdf = self.build(tracer, out)
        self.queries(coded, pdf, out, tracer, TRACE_QUERIES)
        return pdf

    def counters(self, pdf: pd.DataFrame) -> dict[str, float]:
        rows = pdf.groupby("pid").size()
        return {
            "spark.pids": float(len(rows)),
            "spark.pid_rows_max_over_mean": float(rows.max() / rows.mean()),
        }

"""Distributed PPQ build (see DESIGN.md section 3).

Dataflow:

1. ``trajectory_features`` -- per-trajectory partition features. PPQ-S
   takes the start position with a native ``groupBy(traj_id)`` min over
   ``(t, x, y)``, with no Python worker. PPQ-A groups the points by a hash
   bucket of ``traj_id`` (one bucket per default-parallelism slot) and
   fits the AR(k) parameters of every trajectory in a bucket with one
   batched ``ar_features`` solve over its first ``ar_window`` points;
2. ``assign_partitions`` -- the small feature table is collected, sorted
   by ``traj_id`` (so the split does not depend on shuffle order),
   checked to be finite, split driver-side with the paper's
   grow-until-eps_p routine, and the ``traj_id -> pid`` map is joined
   back (broadcast-size);
3. ``build_summary_spark`` -- ``groupBy(pid).applyInPandas`` runs the
   sequential E-PQ + CQC core once per partition on its executor. Coded
   points and codebook rows come back in one pass, discriminated by a
   ``kind`` column, so the data is scanned once.

The per-point guarantees (codebook error <= eps1; with CQC, final error
<= (sqrt(2)/2)*gs, Lemma 3) hold per partition and therefore globally.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.kmeans import grow_partition
from repro.core.partitioning import ar_features
from repro.core.ppq import run_ppq

CODED_SCHEMA = (
    "traj_id long, t int, x double, y double, pid long, code long, "
    "xhat double, yhat double, xrec double, yrec double, cqc long"
)
_WIDE_SCHEMA = "kind int, " + CODED_SCHEMA


def trajectory_features(
    df: DataFrame, *, mode: str, k: int = 2, ar_window: int = 16
) -> DataFrame:
    """Per-trajectory feature rows: (traj_id, f0, f1 [, ...fk-1]).

    A trajectory's points are taken in ``(t, x, y)`` order, so duplicate
    ``(traj_id, t)`` rows give the same features whatever the row order.
    """
    if mode == "S":
        first = df.groupBy("traj_id").agg(F.min(F.struct("t", "x", "y")).alias("p"))
        return first.select("traj_id", F.col("p.x").alias("f0"), F.col("p.y").alias("f1"))
    if mode != "A":
        raise ValueError(f"unknown mode {mode!r}")

    def feat(pdf: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((pdf.y, pdf.x, pdf.t, pdf.traj_id))
        tid = pdf.traj_id.to_numpy()[order]
        xy = pdf[["x", "y"]].to_numpy()[order]
        starts = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])
        counts = np.diff(np.r_[starts, len(tid)])
        lengths = np.minimum(counts, ar_window)
        # rank of each point in its trajectory; its first ar_window points
        # fill the right end of the trajectory's window, oldest first
        rank = np.arange(len(tid)) - np.repeat(starts, counts)
        keep = rank < ar_window
        row = np.repeat(np.arange(len(starts)), counts)[keep]
        col = np.repeat(ar_window - lengths, counts)[keep] + rank[keep]
        windows = np.zeros((len(starts), ar_window, 2))
        windows[row, col] = xy[keep]
        a = ar_features(windows, k, lengths=lengths)
        out = pd.DataFrame(a, columns=[f"f{j}" for j in range(k)])
        out.insert(0, "traj_id", tid[starts])
        return out

    schema = "traj_id long, " + ", ".join(f"f{j} double" for j in range(k))
    n = df.sparkSession.sparkContext.defaultParallelism
    return (
        df.withColumn("bucket", F.pmod(F.xxhash64("traj_id"), F.lit(n)))
        .groupBy("bucket")
        .applyInPandas(feat, schema=schema)
    )


def assign_partitions(
    spark: SparkSession,
    df: DataFrame,
    *,
    mode: str,
    eps_p: float,
    k: int = 2,
    seed: int = 0,
) -> DataFrame:
    """Add a ``pid`` column: static trajectory-level partition assignment.

    Raises ``ValueError`` naming the first trajectory (by id) whose
    features are not finite, e.g. from a NaN start point.
    """
    feats = trajectory_features(df, mode=mode, k=k).toPandas()
    # grow_partition depends on row order; the rows arrive in shuffle order
    feats = feats.sort_values("traj_id", ignore_index=True)
    fcols = [c for c in feats.columns if c.startswith("f")]
    f = feats[fcols].to_numpy()
    bad = ~np.isfinite(f).all(axis=1)
    if bad.any():
        tid = int(feats.traj_id[np.argmax(bad)])
        raise ValueError(f"non-finite partition features for trajectory {tid}")
    labels, _, _ = grow_partition(f, eps_p, seed=seed)
    mapping = spark.createDataFrame(
        pd.DataFrame({"traj_id": feats.traj_id, "pid": labels.astype(np.int64)}),
        schema="traj_id long, pid long",
    )
    return df.join(F.broadcast(mapping), on="traj_id", how="inner")


def build_summary_spark(
    df_with_pid: DataFrame,
    *,
    predict: bool = True,
    use_cqc: bool = True,
    eps1: float = 0.001,
    gs: float | None = None,
    k: int = 2,
    seed: int = 0,
) -> tuple[DataFrame, DataFrame]:
    """Run per-partition E-PQ (+CQC) with applyInPandas.

    Returns ``(coded, codebooks)``: coded points (CODED_SCHEMA) and
    codebook rows (pid, code, cx=xhat, cy=yhat).
    """

    def worker(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        pid = int(key[0])
        s = run_ppq(
            pdf[["traj_id", "t", "x", "y"]],
            mode=None,
            predict=predict,
            use_cqc=use_cqc,
            eps1=eps1,
            gs=gs,
            k=k,
            seed=seed + 7919 * (pid + 1),
        )
        coded = s.coded.copy()
        coded["pid"] = pid
        coded["kind"] = 0
        cb = s.codebooks[0]
        cb_rows = pd.DataFrame(
            {
                "kind": 1,
                "traj_id": -1,
                "t": -1,
                "x": 0.0,
                "y": 0.0,
                "pid": pid,
                "code": np.arange(len(cb), dtype=np.int64),
                "xhat": cb[:, 0] if len(cb) else np.zeros(0),
                "yhat": cb[:, 1] if len(cb) else np.zeros(0),
                "xrec": 0.0,
                "yrec": 0.0,
                "cqc": -1,
            }
        )
        return pd.concat(
            [coded.reindex(columns=_cols()), cb_rows.reindex(columns=_cols())],
            ignore_index=True,
        )

    wide = df_with_pid.groupBy("pid").applyInPandas(worker, schema=_WIDE_SCHEMA)
    wide = wide.cache()
    coded = wide.filter(F.col("kind") == 0).drop("kind")
    codebooks = (
        wide.filter(F.col("kind") == 1)
        .select("pid", "code", F.col("xhat").alias("cx"), F.col("yhat").alias("cy"))
    )
    return coded, codebooks


def _cols() -> list[str]:
    return [
        "kind", "traj_id", "t", "x", "y", "pid", "code",
        "xhat", "yhat", "xrec", "yrec", "cqc",
    ]


def mae_m_spark(coded: DataFrame) -> float:
    """Mean reconstruction error in meters, computed in Spark."""
    from repro import DEG_TO_M

    row = coded.select(
        F.avg(
            F.sqrt(
                (F.col("x") - F.col("xrec")) ** 2 + (F.col("y") - F.col("yrec")) ** 2
            )
        ).alias("mae")
    ).collect()[0]
    return float(row.mae) * DEG_TO_M

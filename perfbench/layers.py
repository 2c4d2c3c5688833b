"""Which program functions the traced run wraps, and how spans become the
per-layer metrics of ``spec.PER_LAYER``.

Each entry names the object a *caller* looks the function up on: a module
that imported the name, or the class whose method is called.
"""
from __future__ import annotations

import importlib

from perfbench.spec import PER_LAYER
from perfbench.tracer import Tracer

#: (module, attribute path, span name)
LOCAL_TARGETS = [
    ("repro.core.ppq", "ar_features", "partitioning.ar_features"),
    ("repro.core.ppq", "run_ppq", "ppq.run_ppq"),
    ("repro.core.ppq", "Summary._path_index", "ppq.path_index"),
    ("repro.core.ppq", "Summary.path", "ppq.path"),
    ("repro.core.partitioning", "IncrementalPartitioner.update", "partitioning.update"),
    ("repro.core.partitioning", "grow_partition", "kmeans.grow_partition"),
    ("repro.core.quantizer", "grow_partition", "kmeans.grow_partition"),
    ("repro.index.pi", "grow_partition", "kmeans.grow_partition"),
    ("repro.core.kmeans", "kmeans", "kmeans.kmeans"),  # _split_two's lookup
    ("repro.core.quantizer", "kmeans", "kmeans.kmeans"),  # FixedQuantizer's
    ("repro.core.epq", "fit_coeffs", "predictor.fit_coeffs"),
    ("repro.core.predictor", "History.warm_ids", "predictor.history"),
    ("repro.core.predictor", "History.matrix", "predictor.history"),
    ("repro.core.predictor", "History.push", "predictor.history"),
    ("repro.core.predictor", "History.last", "predictor.history"),
    ("repro.core.epq", "EPQEngine.step", "epq.step"),
    ("repro.core.quantizer", "IncrementalQuantizer.quantize", "quantizer.quantize"),
    ("repro.core.quantizer", "FixedQuantizer.fit_quantize", "quantizer.fit_quantize"),
    ("repro.core.cqc", "CQCCoder.encode", "cqc.encode"),
    ("repro.core.cqc", "CQCCoder.correct", "cqc.correct"),
    ("repro.queries.strq", "strq_answer", "strq.answer"),
    ("repro.index.tpi", "TPI.push", "tpi.push"),
    ("repro.index.tpi", "TPI.period_for", "tpi.period_for"),
    ("repro.index.tpi", "TPI.query", "tpi.query"),
    ("repro.index.tpi", "build_pi", "pi.build_pi"),
    ("repro.index.pi", "PI.query", "pi.query"),
    ("repro.index.pi", "PI.add_points", "pi.add_points"),
    ("repro.index.pi", "PI.rect_of", "pi.rect_of"),
    ("repro.index.pi", "remove_overlap", "rectangles.remove_overlap"),
    ("repro.index.pi", "encode_ids", "idcodec.encode_ids"),
    ("repro.index.pi", "decode_ids", "idcodec.decode_ids"),
    ("repro.index.disk", "layout_tpi", "disk.layout_tpi"),
    ("repro.index.disk", "tpi_query_ios", "disk.tpi_query_ios"),
]

#: only the Spark workload imports pyspark, so these are wrapped on demand
SPARK_TARGETS = [
    ("repro.spark.pipeline", "assign_partitions", "spark.assign_partitions"),
    ("repro.spark.pipeline", "grow_partition", "kmeans.grow_partition"),
    ("pyspark.sql.classic.dataframe", "DataFrame.toPandas", "spark.collect"),
]

_SPAN_NAMES = {span for _, _, span in LOCAL_TARGETS + SPARK_TARGETS}


def instrument(tracer: Tracer, *, spark: bool = False) -> None:
    """Wrap every target; undo with ``tracer.restore()``."""
    for mod_name, path, span in LOCAL_TARGETS + (SPARK_TARGETS if spark else []):
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, span)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self seconds per wrapped function, plus the Spark stage
    times that are defined by where a span sits."""
    agg = tracer.summary()

    def get(name: str, key: str) -> float:
        return float(agg.get(name, {}).get(key, 0.0))

    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and base in _SPAN_NAMES:
            out[name] = get(base, key)
    out["ppq.path_index.s"] = get("ppq.path_index", "total_s")
    out["strq.frame_by_t.s"] = get("strq.frame_by_t", "total_s")
    run_total = get("ppq.run_ppq", "total_s")
    ar_self = get("partitioning.ar_features", "self_s")
    out["partitioning.ar_features.build_share"] = ar_self / run_total if run_total else 0.0

    parents = tracer.parent_names()
    feats = assign = 0.0
    for s, parent in zip(tracer.spans, parents):
        if parent == "spark.assign_partitions":
            if s.name == "spark.collect":
                feats += s.end - s.start
            elif s.name == "kmeans.grow_partition":
                assign += s.end - s.start
    out["spark.features.s"] = feats
    out["spark.assign.s"] = assign
    for stage in ("build", "strq", "tpq"):
        out[f"spark.{stage}.s"] = get(f"spark.{stage}", "total_s")
    out["trace.spans"] = float(len(tracer.spans))
    return out


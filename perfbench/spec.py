"""What the benchmark measures, beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root holds the workload names and
their rationale, and the metric names, units and bounds; they are read
from it here. This module adds what that file has no room for: the inputs
of each workload, the figures printed but not compared across commits,
and which end-to-end metric each layer metric should move. All of it is
printed with every result.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: workload -> one-line rationale
WHY = {w["name"]: w["why"] for w in BENCH["workloads"]}
#: end-to-end metrics, reported by every workload: name -> unit
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: workload -> what it feeds the program, and its sizes
INPUTS = {
    "porto_ppqa_online": (
        "trajgen.porto_lite at bench size (600 trajectories, 100 timesteps, "
        "45,119 points, dataset seed 7); PPQ-A eps1=0.001 deg, g_s=50 m, "
        "eps_p=0.3; queries sampled with --seed"
    ),
    "geolife_ppqs_fixed5": (
        "trajgen.geolife_lite at bench size (150 trajectories, 300 timesteps, "
        "33,099 points, dataset seed 11); PPQ-S fixed_bits=5, eps_p=0.15; "
        "queries sampled with --seed"
    ),
    "geolife_tpi_stream": (
        "trajgen.geolife_lite raw points at bench size (33,099 points); "
        "eps_d=eps_c=0.5, eps_s=0.1, g_c=100 m; after each pushed timestep, "
        "8 lookups at points drawn uniformly (with --seed) from all points "
        "pushed so far"
    ),
    "porto_spark_build": (
        "trajgen.porto_lite at bench size (45,119 points); Spark local[2]; "
        "PPQ-S eps_p=0.02; queries sampled with --seed"
    ),
}

#: figures printed with each end-to-end run but not compared across
#: commits, because they do not apply to every workload (or are 0 on most)
REPORTED = {
    "compression_ratio": "ratio",
    "mae_m": "m",
    "bound_violation_rate": "share",
    "query_error_rate": "share",
    "tpq_p50_ms": "ms",
    "tpq_p99_ms": "ms",
    "index_ingest_pts_per_s": "points/s",
    "index_size_mb": "MB",
    "ios_per_query": "pages",
}

_BUILD = "ingest_pts_per_s on porto_ppqa_online, geolife_ppqs_fixed5"
_STRQ = "strq_p50_ms, strq_tail_ms"
_INDEX = "ingest_pts_per_s on geolife_tpi_stream"

#: per-layer metric -> the end-to-end metric(s) it should move
MOVES = {
    "partitioning.ar_features.calls": "ingest_pts_per_s on porto_ppqa_online; 0 on geolife_ppqs_fixed5",
    "partitioning.ar_features.self_s": "ingest_pts_per_s on porto_ppqa_online",
    "partitioning.ar_features.build_share": "ingest_pts_per_s on porto_ppqa_online",
    "partitioning.update.self_s": _BUILD,
    "partitioning.splits": _BUILD,
    "partitioning.merges": _BUILD,
    "partitioning.q_max": _BUILD + "; compression_ratio",
    "kmeans.grow_partition.calls": _BUILD + "; " + _INDEX + "; ingest_pts_per_s on porto_spark_build",
    "kmeans.grow_partition.self_s": _BUILD + "; " + _INDEX + "; ingest_pts_per_s on porto_spark_build",
    "kmeans.kmeans.calls": "ingest_pts_per_s on geolife_ppqs_fixed5",
    "kmeans.kmeans.self_s": "ingest_pts_per_s on geolife_ppqs_fixed5",
    "predictor.fit_coeffs.self_s": _BUILD,
    "predictor.history.self_s": _BUILD + " (most on geolife_ppqs_fixed5)",
    "epq.step.calls": _BUILD,
    "epq.step.self_s": _BUILD,
    "quantizer.quantize.self_s": "ingest_pts_per_s on porto_ppqa_online",
    "quantizer.fit_quantize.self_s": "ingest_pts_per_s on geolife_ppqs_fixed5",
    "quantizer.codewords": "compression_ratio",
    "cqc.encode.self_s": _BUILD,
    "cqc.correct.self_s": _BUILD,
    "cqc.out_of_grid": "bound_violation_rate, query_exact_share on geolife_ppqs_fixed5",
    "ppq.run_ppq.self_s": _BUILD + " (most on geolife_ppqs_fixed5)",
    "ppq.path_index.s": "tpq_p50_ms, tpq_p99_ms",
    "ppq.path.self_s": "tpq_p50_ms, tpq_p99_ms",
    "ppq.compression_ratio": "compression_ratio",
    "ppq.bound_violation_rate": "bound_violation_rate, query_exact_share",
    "strq.frame_by_t.s": _STRQ + " on the build workloads",
    "strq.answer.self_s": _STRQ + " on the build workloads",
    "strq.candidates_per_query": _STRQ + " on the build workloads",
    "strq.useful_ratio": _STRQ + " on the build workloads",
    "tpi.push.self_s": _INDEX,
    "tpi.actions.initial": _INDEX,
    "tpi.actions.rebuild": _INDEX + "; index_size_mb, ios_per_query",
    "tpi.actions.insertion": _INDEX,
    "tpi.actions.append": _INDEX,
    "tpi.periods": _INDEX + "; index_size_mb, ios_per_query",
    "tpi.period_for.self_s": _STRQ + " on geolife_tpi_stream",
    "tpi.size_mb": "index_size_mb",
    "pi.query.self_s": _STRQ + " on geolife_tpi_stream",
    "pi.ids_per_query": _STRQ + " on geolife_tpi_stream",
    "pi.build_pi.self_s": _INDEX,
    "pi.add_points.self_s": _INDEX,
    "pi.rect_of.self_s": _INDEX,
    "pi.rects": _INDEX + "; " + _STRQ + " on geolife_tpi_stream",
    "rectangles.remove_overlap.self_s": _INDEX,
    "idcodec.encode_ids.calls": _INDEX + "; index_size_mb",
    "idcodec.encode_ids.self_s": _INDEX,
    "idcodec.decode_ids.calls": _STRQ + " on geolife_tpi_stream",
    "idcodec.decode_ids.self_s": _STRQ + " on geolife_tpi_stream",
    "idcodec.bits_per_id": "index_size_mb",
    "disk.pages": "ios_per_query",
    "disk.ios_total": "ios_per_query",
    "spark.features.s": "ingest_pts_per_s on porto_spark_build",
    "spark.assign.s": "ingest_pts_per_s on porto_spark_build",
    "spark.build.s": "ingest_pts_per_s on porto_spark_build",
    "spark.pids": "ingest_pts_per_s on porto_spark_build",
    "spark.pid_rows_max_over_mean": "ingest_pts_per_s on porto_spark_build",
    "spark.strq.s": "strq_p50_ms on porto_spark_build",
    "spark.tpq.s": "tpq_p50_ms on porto_spark_build",
    "trace.spans": "none: size of the trace",
    "trace.overhead_s": "none: traced minus untraced wall time of the same work",
    "trace.overhead_share": "none: trace.overhead_s / untraced wall time",
}

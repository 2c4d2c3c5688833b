"""Layered benchmark of the PPQ-trajectory system.

Usage, from the repository root:

    python3 perfbench/run.py --workload porto_ppqa_online --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` runs a fixed unit of the workload once untraced and
once with every layer function wrapped, and reports its per-layer metrics.
The next-to-last stdout line is a JSON report (workload record, machine
facts, every figure with its unit); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. The program is imported
from ``src/`` of the checkout the script sits in; without it the script
exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: set-up repetitions whose median is setup_s
SETUP_REPEATS = 5
#: the one workload whose work runs in Spark's JVM and worker processes
SPARK_WORKLOAD = "porto_spark_build"


def pin_to_one_cpu() -> int:
    """Keep this process on one of the CPUs it may use. On a shared host
    the CPUs differ in load from moment to moment; moving between them
    spreads the times of a single-process workload, and the host-speed
    kernel measures the CPU the work runs on only if both stay on it.
    Called before NumPy starts its threads. Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program under {ROOT / 'src'}; nothing to measure")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def machine_facts(spark_master: str | None) -> dict:
    import numpy
    import pandas

    try:
        import pyspark

        pyspark_version = pyspark.__version__
    except ImportError:
        pyspark_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark_version,
        "spark_master": spark_master,
        "machine": platform.machine(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def make_workload(name: str, scale: str, seed: int):
    from perfbench import spark_build, workloads

    if name in ("porto_ppqa_online", "geolife_ppqs_fixed5"):
        return workloads.SummaryWorkload(name, scale, seed)
    if name == "geolife_tpi_stream":
        return workloads.TPIStreamWorkload(name, scale, seed)
    if name == SPARK_WORKLOAD:
        return spark_build.SparkBuildWorkload(name, scale, seed, str(OUT_DIR / "spark"))
    raise SystemExit(f"unknown workload {name!r}")


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "bench") -> tuple[dict, dict]:
    """Run one workload; returns (report, result)."""
    from perfbench import layers, spec
    from perfbench.checks import Outcome
    from perfbench.hostspeed import HostSpeed
    from perfbench.spark_build import SPARK_CORES
    from perfbench.tracer import NullTracer, Tracer

    wl = make_workload(name, scale, seed)
    speed = HostSpeed()
    setup_runs, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, factor = speed.timed(wl.setup)
        setup_wall.append(wall)
        setup_runs.append(wall * factor)
    setup_s = statistics.median(setup_runs)
    wl.prepare()  # the oracle's lookup tables, outside setup_s
    is_spark = hasattr(wl, "start")
    try:
        if is_spark:
            _, wall, factor = speed.timed(wl.start)
            setup_wall.append(wall)
            setup_s += wall * factor
        if not trace:
            e2e, reported, out = wl.measure(seconds, speed)
            reported["setup_wall_s"] = setup_wall
            metrics = {"setup_s": setup_s, **e2e}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = spec.END_TO_END
        else:
            out = Outcome()
            _, wall, factor = speed.timed(wl.unit, NullTracer(), Outcome())
            untraced = wall * factor
            tracer = Tracer()
            layers.instrument(tracer, spark=is_spark)
            try:
                product, wall, factor = speed.timed(wl.unit, tracer, out)
                traced = wall * factor
            finally:
                tracer.restore()
            metrics = {m: 0.0 for m in spec.PER_LAYER}
            metrics.update(layers.span_metrics(tracer))
            metrics.update(wl.counters(product))
            metrics["trace.overhead_s"] = traced - untraced
            metrics["trace.overhead_share"] = (traced - untraced) / untraced
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz")
            reported = {"untraced_s": untraced, "traced_s": traced}
            units = spec.PER_LAYER
    finally:
        if is_spark:
            wl.close()

    report = {
        "workload": name,
        "why": spec.WHY[name],
        "inputs": spec.INPUTS[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "machine": machine_facts(f"local[{SPARK_CORES}]" if is_spark else None),
        "outcomes": out.by_kind,
        "wrong_examples": out.wrong,
        "reported": {k: {"value": v, "unit": _unit(k)} for k, v in reported.items()},
    }
    if trace:
        report["moves"] = spec.MOVES
    result = {
        "correct": not out.wrong and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units},
    }
    return report, result


def _unit(name: str) -> str:
    from perfbench import spec

    if name in spec.REPORTED:
        return spec.REPORTED[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("factors", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="bench", choices=("bench", "tiny"),
                    help="dataset sizes; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload != SPARK_WORKLOAD:
        pin_to_one_cpu()
    _import_program()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload over several seeds and summarise each end-to-end
metric: the values, their median, quartiles and spread (interquartile
range / median).

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/out/runs.json

``baseline.json`` was written this way. Each run is a separate
``run.py`` process, one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    summary: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        checks = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            checks.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        summary["workloads"][name] = {
            "machine": report["machine"],
            "checks": checks,
            "metrics": {m: summarise(v) for m, v in values.items()},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

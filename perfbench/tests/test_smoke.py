"""Tiny-scale runs of every workload through the command line: each named
metric is emitted with its unit, the outputs check out, and the script
refuses to run without the program."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import spec

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, workload: str, trace: int, timeout: float = 300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WHY))
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert set(report["moves"]) == set(spec.PER_LAYER)
    assert report["workload"] == workload and report["machine"]["nproc"] >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "porto_ppqa_online", 0, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

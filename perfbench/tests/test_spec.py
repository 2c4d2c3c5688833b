"""BENCHMARK.json keeps to the runner's contract, and spec.py describes
every workload and layer metric it names."""
import re

from perfbench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    b = spec.BENCH
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert b["command"] == ["python3", "perfbench/run.py"]
    assert b["paths"] == ["perfbench"]
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60


def test_workloads():
    b = spec.BENCH
    assert 2 <= len(b["workloads"]) <= 8
    for w in b["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert set(spec.INPUTS) == set(spec.WHY)


def test_metrics():
    b = spec.BENCH
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    names += [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert set(spec.MOVES) == set(spec.PER_LAYER)

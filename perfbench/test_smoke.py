"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced.  The test checks that each metric
of BENCHMARK.json is emitted with its unit, that the span self times of each
operation add up to no more than its wall time, and that the benchmark
refuses to run where the program is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
SEED = 3


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{workload}-seed{SEED}-trace1-toy.json")) as fh:
        details = json.load(fh)
    assert details["traced"]
    for p in details["traced"]:
        assert p["spans"] > 0
        for op, wall in p["op_walls"].items():
            assert 0.0 <= p["op_self_s"][op] <= wall


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)
    names = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layer_map.values():
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in names


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Toy-scale smoke test of the benchmark: result schema and metric names only, never a timing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--toy", "--seed", "0", "--seconds", "0",
         "--out", str(tmp_path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_untraced_results_carry_the_end_to_end_metrics(tmp_path):
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    results = _run(tmp_path, "--workload", "all", "--trace", "0")
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for result in results.values():
        _check_result(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["train-stock", "serve-ablation"])
def test_traced_result_carries_the_per_layer_metrics(tmp_path, workload):
    _check_result(_run(tmp_path, "--workload", workload, "--trace", "1"), SPEC["per_layer"])

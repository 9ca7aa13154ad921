"""The benchmark's own tests: smoke runs of every workload.

Run from the checkout root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def copy_checkout(target, with_source: bool) -> None:
    """What a benchmark checkout holds: BENCHMARK.json, perfbench/, src/."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-work")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    shutil.copytree(BENCH_DIR, target / "perfbench", ignore=skip)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), target / "src", ignore=skip)


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_outputs_correct(workload):
    completed = run_bench(workload, 0)
    assert "seed=3" in completed.stdout
    result = last_json(completed)
    assert result["correct"] is True and result["failed"] == 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    result = last_json(run_bench(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["failed_frac"] == 0
    assert metrics["pipeline.sim_instructions"] > 0
    assert metrics["run.trace_overhead_ratio"] > 0


def test_tampered_digest_counts_as_failed(tmp_path):
    copy_checkout(tmp_path, with_source=True)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["points"] = {key: "0" * 24 for key in expected["points"]}
    path.write_text(json.dumps(expected))
    result = last_json(run_bench("sweep-int-rfc", 1, cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    completed = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout

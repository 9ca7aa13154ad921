"""Shared settings for the pytest-benchmark harness.

Every paper figure/table has one benchmark that regenerates it at reduced
scale (fewer instructions per benchmark and, for the heavy sweeps, a
representative subset of SPEC95).  Set the environment variable
``REPRO_BENCH_INSTRUCTIONS`` to raise the instruction budget for a
higher-fidelity run (e.g. 8000), and ``REPRO_BENCH_FULL_SUITE=1`` to use
all 18 benchmarks everywhere.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import run_experiments
from repro.experiments.store import ResultStore

#: Benchmarks used by the reduced-scale sweeps (2 int + 2 fp, covering the
#: latency-sensitive and the memory-bound corners).
REPRESENTATIVE_BENCHMARKS = ("m88ksim", "ijpeg", "swim", "mgrid")


def _instructions(default: int = 2000) -> int:
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", default))


def _benchmarks():
    if os.environ.get("REPRO_BENCH_FULL_SUITE"):
        return None
    return REPRESENTATIVE_BENCHMARKS


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Reduced-scale settings shared by the figure benchmarks."""
    return ExperimentSettings(
        instructions_per_benchmark=_instructions(),
        warmup_instructions=500,
        benchmarks=_benchmarks(),
    )


@pytest.fixture(scope="session")
def bench_store() -> ResultStore:
    """One shared result store so figures can reuse baseline runs."""
    return ResultStore()


def run_figure(name, settings, store=None):
    """Simulate one experiment's points, then render its report."""
    (result,) = run_experiments([name], settings, store=store)
    return result


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              iterations=1, rounds=1, warmup_rounds=0)

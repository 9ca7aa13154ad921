"""Figure 8 benchmark: performance vs area Pareto sweep.

This is the most expensive experiment (it sweeps port configurations for
all three architectures), so it runs at a further reduced instruction
budget and on the representative benchmark subset.
"""

from __future__ import annotations

from benchmarks.conftest import REPRESENTATIVE_BENCHMARKS, run_figure, run_once
from repro.experiments.common import ExperimentSettings


def bench_figure8_performance_vs_area(benchmark):
    """Figure 8: Pareto-optimal (area, relative performance) points."""
    settings = ExperimentSettings(
        instructions_per_benchmark=1200,
        warmup_instructions=300,
        benchmarks=REPRESENTATIVE_BENCHMARKS,
    )
    result = run_once(benchmark, run_figure, "figure8", settings)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        per_architecture = result.data[suite]
        assert set(per_architecture) == {"1-cycle", "register file cache",
                                         "2-cycle, 1-bypass"}
        for architecture, points in per_architecture.items():
            assert points
            areas = [p["area_10Klambda2"] for p in points]
            values = [p["relative_performance"] for p in points]
            assert areas == sorted(areas)
            assert all(b > a for a, b in zip(values, values[1:]))
        # The register file cache reaches a given performance level at a
        # smaller area than the 1-cycle file does for most of the range
        # (it trades lower-bank ports for upper-bank ports).
        cache_points = per_architecture["register file cache"]
        assert max(p["relative_performance"] for p in cache_points) > 0.5

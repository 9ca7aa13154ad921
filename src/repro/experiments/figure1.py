"""Figure 1: IPC versus the number of physical registers.

The paper varies the number of physical registers from 48 to 256 (per
register class) on an 8-way processor with a 256-entry reorder buffer and
instruction queue and a 1-cycle register file, and plots the harmonic
mean IPC of SpecInt95 and SpecFP95.  The expected shape: IPC grows with
the register count and flattens beyond roughly 128 registers.
"""

from __future__ import annotations

from repro.analysis.metrics import harmonic_mean
from repro.analysis.tables import format_figure
from repro.experiments.common import (
    Architecture,
    ExperimentResult,
    ExperimentSettings,
    ResultsView,
    one_cycle_factory,
)

#: Register counts swept by the paper.
REGISTER_COUNTS: tuple[int, ...] = (48, 64, 96, 128, 160, 192, 224, 256)

ARCHITECTURES = tuple(
    Architecture(
        f"1-cycle/{count}regs",
        one_cycle_factory(),
        overrides={"num_int_physical": count, "num_fp_physical": count,
                   "instruction_window": 256, "rob_size": 256},
        detail=count,
    )
    for count in REGISTER_COUNTS
)


def render(settings: ExperimentSettings, results: ResultsView) -> ExperimentResult:
    """Reproduce Figure 1."""
    labels = settings.active_suite_labels()
    series: dict[str, list[float]] = {label: [] for _suite, label in labels}
    per_benchmark: dict[int, dict[str, float]] = {}
    for architecture in ARCHITECTURES:
        merged: dict[str, float] = {}
        for suite, label in labels:
            ipcs = results.ipcs(suite, architecture)
            merged.update(ipcs)
            series[label].append(harmonic_mean(ipcs.values()))
        per_benchmark[architecture.detail] = merged

    body = format_figure(
        list(REGISTER_COUNTS),
        series,
        title="Harmonic-mean IPC vs number of physical registers "
              "(1-cycle register file, 256-entry window/ROB)",
    )
    return ExperimentResult(
        name="Figure 1",
        title="IPC for a varying number of physical registers",
        body=body,
        data={"register_counts": list(REGISTER_COUNTS), "series": series,
              "per_benchmark": per_benchmark},
    )

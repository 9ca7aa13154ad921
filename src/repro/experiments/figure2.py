"""Figure 2: impact of register file latency and bypass depth.

Per-benchmark IPC of three single-banked register files with unlimited
ports: 1-cycle/1-bypass, 2-cycle/2-bypass (full bypass) and
2-cycle/1-bypass.  Expected shape: the 1-cycle file is fastest, adding a
cycle costs little when full bypass is kept, and costs a lot (especially
for the integer codes) when only one bypass level is available.
"""

from __future__ import annotations

from repro.analysis.tables import format_series
from repro.experiments.common import (
    Architecture,
    ExperimentResult,
    ExperimentSettings,
    ResultsView,
    one_cycle_factory,
    two_cycle_full_bypass_factory,
    two_cycle_one_bypass_factory,
    with_hmean,
)

ARCHITECTURES = (
    Architecture("1-cycle", one_cycle_factory(), label="1-cycle, 1-bypass level"),
    Architecture("2-cycle-full", two_cycle_full_bypass_factory(),
                 label="2-cycle, 2-bypass levels"),
    Architecture("2-cycle-1byp", two_cycle_one_bypass_factory(),
                 label="2-cycle, 1-bypass level"),
)


def render(settings: ExperimentSettings, results: ResultsView) -> ExperimentResult:
    """Reproduce Figure 2."""
    data: dict[str, dict[str, dict[str, float]]] = {}
    sections = []
    for suite, label in settings.active_suite_labels():
        series = {
            architecture.label: with_hmean(results.ipcs(suite, architecture))
            for architecture in ARCHITECTURES
        }
        data[label] = series
        sections.append(format_series(series, title=f"{label} IPC"))

    return ExperimentResult(
        name="Figure 2",
        title="IPC for 1-cycle, 2-cycle and 2-cycle/1-bypass register files",
        body="\n\n".join(sections),
        data=data,
    )

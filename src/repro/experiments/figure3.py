"""Figure 3: how many registers actually hold values that are needed.

For every cycle the paper counts the registers containing a value that is
a source operand of (a) at least one unexecuted instruction in the window
("Value & Instruction"), and (b) an unexecuted instruction whose operands
are all ready ("Value & Ready Instruction"), and plots the cumulative
distribution averaged over each suite.  The punchline: a handful of
registers suffice the vast majority of the time, which is what makes a
small upper-level bank viable.
"""

from __future__ import annotations

from repro.analysis.distributions import average_cdfs, percentile_from_cdf
from repro.analysis.tables import format_figure
from repro.experiments.common import (
    Architecture,
    ExperimentResult,
    ExperimentSettings,
    ResultsView,
    one_cycle_factory,
)

MAX_REGISTERS = 32

OCCUPANCY = Architecture("1-cycle/occupancy", one_cycle_factory(),
                         overrides={"collect_occupancy": True})

ARCHITECTURES = (OCCUPANCY,)


def render(settings: ExperimentSettings, results: ResultsView) -> ExperimentResult:
    """Reproduce Figure 3."""
    sections = []
    data: dict[str, dict[str, list[float]]] = {}
    for suite, label in settings.active_suite_labels():
        runs = results.stats(suite, OCCUPANCY).values()
        needed = average_cdfs([stats.occupancy_cdf("needed", MAX_REGISTERS)
                               for stats in runs])
        ready = average_cdfs([stats.occupancy_cdf("ready", MAX_REGISTERS)
                              for stats in runs])
        data[label] = {"value_and_instruction": needed, "value_and_ready": ready}
        sections.append(
            format_figure(
                list(range(MAX_REGISTERS + 1)),
                {"Value & Instruction": needed, "Value & Ready Instruction": ready},
                title=(
                    f"{label}: cumulative % of cycles vs number of registers "
                    f"(90% covered by {percentile_from_cdf(needed, 90)} / "
                    f"{percentile_from_cdf(ready, 90)} registers)"
                ),
                value_format="{:.1f}",
            )
        )

    return ExperimentResult(
        name="Figure 3",
        title="Cumulative distribution of the number of registers holding needed values",
        body="\n\n".join(sections),
        data=data,
    )

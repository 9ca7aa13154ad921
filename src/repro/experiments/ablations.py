"""Ablation studies beyond the paper's published figures.

The paper's conclusions call out several design choices whose sensitivity
is worth quantifying, and mention the one-level organisation as ongoing
work.  This module provides four ablations of the register file cache on
a configurable benchmark subset:

* **upper-level capacity** — how large does the upper bank have to be
  (the paper fixes 16 registers)?
* **caching policy** — non-bypass and ready caching versus the
  always-cache and never-cache baselines.
* **number of buses** — how much inter-level bandwidth is needed for the
  demand fills and prefetches?
* **one-level banked organisation** — the alternative sketched in
  Figure 4a, with the register file split into interleaved banks that all
  feed the functional units.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.tables import format_series
from repro.experiments.common import (
    Architecture,
    ExperimentResult,
    ExperimentSettings,
    OneLevelBankedFactory,
    ResultsView,
    one_cycle_factory,
    register_file_cache_factory,
)

#: Upper-level capacities swept by the capacity ablation.
UPPER_CAPACITIES: Sequence[int] = (4, 8, 16, 32, 64)
#: Bus counts swept by the bandwidth ablation.
BUS_COUNTS: Sequence[int] = (1, 2, 4)
#: Caching policies compared by the policy ablation.
CACHING_POLICIES: Sequence[str] = ("non-bypass", "ready", "always", "never")
#: Bank counts for the one-level organisation.
BANK_COUNTS: Sequence[int] = (2, 4)

ONE_CYCLE = Architecture("1-cycle", one_cycle_factory(), label="1-cycle file")
REGISTER_FILE_CACHE = Architecture("rfc/non-bypass/prefetch-first-pair",
                                   register_file_cache_factory(),
                                   label="register file cache")
CAPACITIES = tuple(
    Architecture(f"rfc/cap{capacity}",
                 register_file_cache_factory(upper_capacity=capacity),
                 label=f"{capacity} regs")
    for capacity in UPPER_CAPACITIES
)
POLICIES = tuple(
    Architecture(f"rfc/policy/{policy}", register_file_cache_factory(caching=policy),
                 label=policy)
    for policy in CACHING_POLICIES
)
BUSES = tuple(
    Architecture(f"rfc/buses{buses}", register_file_cache_factory(buses=buses),
                 label=f"{buses} buses")
    for buses in BUS_COUNTS
)
ONE_LEVEL = tuple(
    Architecture(f"one-level/{banks}banks", OneLevelBankedFactory(num_banks=banks),
                 label=f"one-level, {banks} banks")
    for banks in BANK_COUNTS
)

ARCHITECTURES = (ONE_CYCLE, REGISTER_FILE_CACHE, *CAPACITIES, *POLICIES, *BUSES,
                 *ONE_LEVEL)


def _series(settings: ExperimentSettings, results: ResultsView,
            architectures: Sequence[Architecture]) -> Dict[str, Dict[str, float]]:
    """Harmonic-mean IPC per suite, one column per architecture label."""
    return {
        label: {architecture.label: results.hmean(suite, architecture)
                for architecture in architectures}
        for suite, label in settings.active_suite_labels()
    }


def upper_capacity_sweep(settings: ExperimentSettings,
                         results: ResultsView) -> ExperimentResult:
    """IPC of the register file cache as the upper-level size varies."""
    series = _series(settings, results, (*CAPACITIES, ONE_CYCLE))
    body = format_series(series, title="Harmonic-mean IPC vs upper-level capacity")
    return ExperimentResult(
        name="Ablation: upper-level capacity",
        title="Register file cache IPC for varying upper-level sizes",
        body=body,
        data={"series": series, "capacities": list(UPPER_CAPACITIES)},
    )


def caching_policy_sweep(settings: ExperimentSettings,
                         results: ResultsView) -> ExperimentResult:
    """IPC of the register file cache under different caching policies."""
    series = _series(settings, results, POLICIES)
    body = format_series(series, title="Harmonic-mean IPC vs caching policy")
    return ExperimentResult(
        name="Ablation: caching policy",
        title="Register file cache IPC under different caching policies",
        body=body,
        data={"series": series},
    )


def bus_count_sweep(settings: ExperimentSettings,
                    results: ResultsView) -> ExperimentResult:
    """IPC of the register file cache as inter-level bandwidth varies."""
    series = _series(settings, results, BUSES)
    body = format_series(series, title="Harmonic-mean IPC vs number of inter-level buses")
    return ExperimentResult(
        name="Ablation: inter-level buses",
        title="Register file cache IPC for varying bus counts",
        body=body,
        data={"series": series},
    )


def one_level_banked_comparison(settings: ExperimentSettings,
                                results: ResultsView) -> ExperimentResult:
    """The one-level multiple-banked organisation vs the register file cache."""
    series = _series(settings, results, (*ONE_LEVEL, REGISTER_FILE_CACHE, ONE_CYCLE))
    body = format_series(series, title="Harmonic-mean IPC, one-level banked organisation")
    return ExperimentResult(
        name="Ablation: one-level organisation",
        title="One-level multiple-banked register file vs the register file cache",
        body=body,
        data={"series": series},
    )


def render(settings: ExperimentSettings, results: ResultsView) -> ExperimentResult:
    """All four ablations, their reports concatenated."""
    parts = [
        upper_capacity_sweep(settings, results),
        caching_policy_sweep(settings, results),
        bus_count_sweep(settings, results),
        one_level_banked_comparison(settings, results),
    ]
    body = "\n\n".join(part.body for part in parts)
    return ExperimentResult(
        name="Ablations",
        title="Design-choice ablations of the register file cache",
        body=body,
        data={part.name: part.data for part in parts},
    )

"""Figure 8: performance versus register file area.

For each register file architecture every combination of read/write port
counts is evaluated; configurations dominated by a cheaper-and-faster
sibling are discarded, and the surviving (area, relative IPC) points are
reported.  Performance is IPC relative to the 1-cycle single-banked file
with unlimited ports, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.tables import format_table
from repro.experiments.common import (
    Architecture,
    ExperimentResult,
    ExperimentSettings,
    ResultsView,
    one_cycle_factory,
    register_file_cache_factory,
    two_cycle_one_bypass_factory,
)
from repro.hwmodel.area import RegisterFileGeometry
from repro.hwmodel.configurations import RegisterFileCacheGeometry
from repro.hwmodel.pareto import DesignPoint, pareto_frontier

#: Port ranges swept by default (kept small so a full sweep stays fast).
SINGLE_READ_PORTS: Sequence[int] = (2, 3, 4)
SINGLE_WRITE_PORTS: Sequence[int] = (2, 3, 4)
CACHE_READ_PORTS: Sequence[int] = (2, 3, 4)
CACHE_WRITE_PORTS: Sequence[int] = (2, 3)
CACHE_BUSES: Sequence[int] = (1, 2)

#: The three architectures whose Pareto frontiers the figure reports.
FAMILIES = ("1-cycle", "register file cache", "2-cycle, 1-bypass")

#: IPC is reported relative to this 1-cycle file with unlimited ports.
BASELINE = Architecture("1-cycle", one_cycle_factory())


def _single_banked(latency: int, reads: int, writes: int) -> Architecture:
    """One swept single-banked configuration; detail is (ports, area)."""
    detail = (f"{reads}R/{writes}W",
              RegisterFileGeometry(128, reads, writes).area_units())
    if latency == 1:
        return Architecture(f"1-cycle/{reads}R{writes}W",
                            one_cycle_factory(read_ports=reads, write_ports=writes),
                            label="1-cycle", detail=detail)
    return Architecture(f"2-cycle-1byp/{reads}R{writes}W",
                        two_cycle_one_bypass_factory(read_ports=reads, write_ports=writes),
                        label="2-cycle, 1-bypass", detail=detail)


def _register_file_cache(reads: int, writes: int, buses: int) -> Architecture:
    """One swept register-file-cache configuration; detail is (ports, area)."""
    geometry = RegisterFileCacheGeometry(
        upper_read_ports=reads,
        upper_write_ports=writes,
        lower_write_ports=writes,
        buses=buses,
    )
    return Architecture(
        f"rfc/{reads}R{writes}W{buses}B",
        register_file_cache_factory(
            upper_read_ports=reads,
            upper_write_ports=writes,
            lower_write_ports=writes,
            buses=buses,
        ),
        label="register file cache",
        detail=(f"{reads}R/{writes}W/{buses}B", geometry.area_units()),
    )


SWEPT: tuple = (
    *(
        _single_banked(latency, reads, writes)
        for reads in SINGLE_READ_PORTS
        for writes in SINGLE_WRITE_PORTS
        for latency in (1, 2)
    ),
    *(
        _register_file_cache(reads, writes, buses)
        for reads in CACHE_READ_PORTS
        for writes in CACHE_WRITE_PORTS
        for buses in CACHE_BUSES
    ),
)

ARCHITECTURES = (BASELINE, *SWEPT)


def render(settings: ExperimentSettings, results: ResultsView) -> ExperimentResult:
    """Reproduce Figure 8 (Pareto frontier of performance vs area)."""
    sections = []
    data: Dict[str, Dict[str, List[dict]]] = {}
    for suite, label in settings.active_suite_labels():
        baseline = results.hmean(suite, BASELINE)
        families: Dict[str, List[DesignPoint]] = {family: [] for family in FAMILIES}
        for architecture in SWEPT:
            ports, area = architecture.detail
            families[architecture.label].append(
                DesignPoint(cost=area,
                            value=results.hmean(suite, architecture) / baseline,
                            label=ports)
            )
        data[label] = {}
        rows = []
        for arch_name, points in families.items():
            frontier = pareto_frontier(points)
            data[label][arch_name] = [
                {"area_10Klambda2": p.cost, "relative_performance": p.value, "ports": p.label}
                for p in frontier
            ]
            for point in frontier:
                rows.append((arch_name, point.label, round(point.cost), round(point.value, 3)))
        rows.sort(key=lambda row: (row[0], row[2]))
        sections.append(
            format_table(
                ("architecture", "ports", "area (10K λ²)", "relative performance"),
                rows,
                title=f"{label}: Pareto-optimal configurations "
                      f"(performance relative to 1-cycle, unlimited ports)",
            )
        )

    return ExperimentResult(
        name="Figure 8",
        title="Performance for a varying area cost (Pareto frontier per architecture)",
        body="\n\n".join(sections),
        data=data,
    )

"""The benchmark runner behind ``python -m repro.bench``.

:class:`BenchmarkRunner` takes the scenario matrix from
:func:`repro.bench.scenarios.all_scenarios` (or an explicit list),
times every scenario through one :meth:`~BenchmarkRunner.measure` —
once, or best of ``repeats`` runs, as the scenario declares — and
assembles a :class:`~repro.bench.report.BenchReport` that is written as
the next ``BENCH_<n>.json`` in the performance trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, List, Optional, Sequence, Union

from repro.bench.report import (
    BenchReport,
    ScenarioResult,
    calibration_score,
    environment_fingerprint,
    next_report_index,
    peak_rss_kilobytes,
)
from repro.bench.scenarios import Scenario, all_scenarios

#: Progress sink for one-line status messages.
ProgressCallback = Callable[[str], None]

#: Kinds whose operations are sweep points; they also report points/minute.
_POINT_KINDS = ("sweep", "service")


@dataclass
class BenchmarkRunner:
    """Runs the benchmark matrix and produces a :class:`BenchReport`.

    ``quick`` shrinks the instruction budgets (for CI); ``repeats`` is
    the number of timed runs of each best-of scenario, of which the best
    is reported (minimum wall time is the standard noise-robust
    estimator for deterministic workloads).
    """

    quick: bool = False
    repeats: int = 2
    #: Substring(s) a scenario name must contain (any one of them).
    name_filter: Union[str, Sequence[str], None] = None
    progress: Optional[ProgressCallback] = None
    #: Scenario override (mainly for tests); defaults to ``all_scenarios(quick)``.
    scenarios: Optional[Sequence[Scenario]] = None
    results: List[ScenarioResult] = field(default_factory=list)

    # ------------------------------------------------------------------

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _selected(self, scenarios: Sequence[Scenario]) -> List[Scenario]:
        if self.name_filter is None:
            return list(scenarios)
        filters = (
            [self.name_filter] if isinstance(self.name_filter, str) else list(self.name_filter)
        )
        return [s for s in scenarios if any(f in s.name for f in filters)]

    # ------------------------------------------------------------------

    def measure(self, scenario: Scenario) -> ScenarioResult:
        """Time one scenario and turn its outcome into a result.

        A ``timed_once`` scenario (sweeps, services) runs once: it is
        long and internally amortized, and the compare gate's
        calibration normalization absorbs machine-speed noise.  Every
        other scenario reports the best wall of ``repeats`` runs, with
        the outcome of the last run.  An outcome that carries its own
        ``wall_seconds`` (an A/B scenario's production pass) replaces
        the measured wall.
        """
        repeats = 1 if scenario.timed_once else max(1, self.repeats)
        wall = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            outcome = scenario.run()
            wall = min(wall, time.perf_counter() - started)
        if outcome.wall_seconds is not None:
            wall = outcome.wall_seconds

        def per_second(count: int) -> float:
            return count / wall if wall > 0 else 0.0

        result = ScenarioResult(
            name=scenario.name,
            kind=scenario.kind,
            wall_seconds=wall,
            repeats=repeats,
            stats_digest=outcome.stats_digest,
            metadata={**scenario.metadata(), **outcome.metadata},
        )
        if outcome.cycles is not None:
            result.cycles = outcome.cycles
            result.instructions = outcome.instructions
            result.cycles_per_second = per_second(outcome.cycles)
            result.instructions_per_second = per_second(outcome.instructions)
        if outcome.operations is not None:
            result.operations = outcome.operations
            result.operations_per_second = per_second(outcome.operations)
        if scenario.kind in _POINT_KINDS:
            result.metadata["points_per_minute"] = round(60.0 * per_second(outcome.operations), 1)
        return result

    def run(self, index: int) -> BenchReport:
        """Execute every selected scenario and assemble the report."""
        scenarios = self._selected(
            self.scenarios if self.scenarios is not None else all_scenarios(self.quick)
        )
        self._say(
            f"bench: {len(scenarios)} scenarios ({'quick' if self.quick else 'full'} "
            f"matrix), {max(1, self.repeats)} repeats each"
        )
        calibration = calibration_score()
        self.results = []
        for done, scenario in enumerate(scenarios, start=1):
            result = self.measure(scenario)
            self.results.append(result)
            if result.cycles_per_second is not None:
                rate = f"{result.cycles_per_second:,.0f} cycles/s"
            elif result.kind in _POINT_KINDS:
                rate = f"{result.metadata['points_per_minute']:,} points/min"
            else:
                rate = f"{result.operations_per_second or 0:,.0f} ops/s"
            self._say(
                f"[{done}/{len(scenarios)}] {result.name}: {rate} ({result.wall_seconds:.3f}s)"
            )
        environment = environment_fingerprint()
        environment["peak_rss_kb"] = peak_rss_kilobytes()
        return BenchReport(
            index=index,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            quick=self.quick,
            environment=environment,
            calibration_score=calibration,
            scenarios=self.results,
        )


def run_and_save(
    output_dir: str,
    quick: bool = False,
    repeats: int = 2,
    index: Optional[int] = None,
    index_dirs: Sequence[str] = (),
    name_filter: Union[str, Sequence[str], None] = None,
    scenarios: Optional[Sequence[Scenario]] = None,
    progress: Optional[ProgressCallback] = None,
) -> tuple[BenchReport, str]:
    """Run the matrix and write ``BENCH_<n>.json``; returns (report, path).

    ``scenarios`` overrides the default ``all_scenarios(quick)`` matrix.
    The index is chosen as 1 + the highest existing report in
    ``output_dir`` and any extra ``index_dirs`` (typically the repository
    root, so CI runs continue the committed trajectory).
    """
    resolved = index if index is not None else next_report_index([output_dir, *index_dirs])
    runner = BenchmarkRunner(
        quick=quick,
        repeats=repeats,
        name_filter=name_filter,
        progress=progress,
        scenarios=scenarios,
    )
    report = runner.run(resolved)
    path = report.save(output_dir)
    return report, path

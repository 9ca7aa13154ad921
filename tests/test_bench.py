"""Tests for the performance subsystem (``repro.bench``)."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from repro.bench.report import (
    BenchReport,
    BenchReportError,
    ScenarioResult,
    compare_reports,
    environment_fingerprint,
    next_report_index,
)
from repro.bench.runner import BenchmarkRunner, run_and_save
from repro.bench.scenarios import (
    Outcome,
    all_scenarios,
    component_scenarios,
    headline_scenario,
    simulation_scenarios,
    with_budget,
)
from repro.bench.__main__ import build_parser
from repro.bench.__main__ import main as bench_main


def _report(index, scenarios, calibration=1_000_000.0):
    return BenchReport(
        index=index,
        created="2026-07-30T00:00:00+00:00",
        environment={"python_version": "3.11"},
        calibration_score=calibration,
        scenarios=scenarios,
    )


def _sim_result(name, cycles, wall):
    return ScenarioResult(
        name=name,
        kind="simulation",
        wall_seconds=wall,
        repeats=1,
        cycles=cycles,
        instructions=cycles,
        cycles_per_second=cycles / wall,
        instructions_per_second=cycles / wall,
    )


@dataclass
class _CountingScenario:
    """A scenario that only counts its runs."""

    name: str
    timed_once: bool
    runs: int = 0

    kind: ClassVar[str] = "store"

    def run(self) -> Outcome:
        self.runs += 1
        return Outcome(operations=10, stats_digest="d", metadata={"run": self.runs})

    def metadata(self):
        return {"declared": True}

    def describe(self) -> str:
        return self.name


class TestScenarios:
    def test_quick_matrix_has_headline_and_all_architectures(self):
        scenarios = simulation_scenarios(quick=True)
        names = [s.name for s in scenarios]
        assert len(names) == len(set(names))
        headline = [s for s in scenarios if s.headline]
        assert len(headline) == 1
        architectures = {s.name.split("/")[2] for s in scenarios if not s.headline}
        assert {
            "1-cycle",
            "2-cycle-1-bypass",
            "one-level-banked",
            "register-file-cache",
        } <= architectures

    def test_quick_budgets_are_smaller(self):
        quick = headline_scenario(quick=True)
        full = headline_scenario(quick=False)
        assert quick.instructions < full.instructions

    def test_component_scenarios_reuse_benchmarks_package(self):
        scenarios = component_scenarios()
        # The repository checkout has benchmarks/ importable via the cwd.
        if not scenarios:
            pytest.skip("benchmarks/ package not importable from here")
        assert all(s.source.startswith("benchmarks.bench_components.") for s in scenarios)
        assert scenarios[0].run().operations > 0

    def test_scenario_run_is_deterministic(self):
        scenario = with_budget(headline_scenario(quick=True), 300)
        first = scenario.run()
        second = scenario.run()
        assert first == second
        assert first.cycles > 0 and len(first.stats_digest) == 64

    def test_all_scenarios_share_one_protocol(self):
        """The matrix in both modes: unique names, the same names in the
        same order (the perf gate matches scenarios by name across quick
        and full reports), and each kind's timing rule."""
        timed_once = {
            "simulation": False,
            "sweep": True,
            "service": True,
            "store": False,
            "component": False,
        }
        quick = all_scenarios(quick=True)
        full = all_scenarios(quick=False)
        names = [s.name for s in quick]
        assert len(names) == len(set(names))
        assert [s.name for s in full] == names
        for scenario in quick + full:
            assert scenario.timed_once is timed_once[scenario.kind], scenario.name
            assert isinstance(scenario.metadata(), dict)
            assert scenario.describe().startswith(f"{scenario.name}: ")
        kinds = [s.kind for s in quick]
        blocks = [kind for i, kind in enumerate(kinds) if i == 0 or kinds[i - 1] != kind]
        assert blocks == [kind for kind in timed_once if kind in kinds]


class TestRunnerAndReport:
    def test_runner_produces_schema_versioned_report(self, tmp_path):
        scenario = with_budget(headline_scenario(quick=True), 300)
        runner = BenchmarkRunner(quick=True, repeats=1, scenarios=[scenario])
        report = runner.run(index=7)
        assert report.schema == 1
        assert report.index == 7
        assert report.calibration_score > 0
        [result] = report.scenarios
        assert result.cycles and result.cycles_per_second > 0
        assert result.stats_digest and len(result.stats_digest) == 64
        path = report.save(str(tmp_path))
        assert path.endswith("BENCH_7.json")
        loaded = BenchReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_run_and_save_auto_numbers_against_existing_reports(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text("{}")
        scenario = with_budget(headline_scenario(quick=True), 200)
        _, path = run_and_save(
            output_dir=str(tmp_path),
            quick=True,
            repeats=1,
            scenarios=[scenario],
        )
        assert path.endswith("BENCH_4.json")

    def test_measure_times_once_or_best_of_repeats(self):
        runner = BenchmarkRunner(repeats=3)
        best_of = _CountingScenario(name="store/best-of", timed_once=False)
        once = _CountingScenario(name="store/once", timed_once=True)
        best_of_result = runner.measure(best_of)
        once_result = runner.measure(once)
        assert (best_of.runs, best_of_result.repeats) == (3, 3)
        assert (once.runs, once_result.repeats) == (1, 1)
        # Scenario metadata plus the last run's outcome metadata.
        assert best_of_result.metadata == {"declared": True, "run": 3}
        assert best_of_result.kind == "store"
        assert best_of_result.operations == 10
        assert best_of_result.rate == best_of_result.operations_per_second > 0

    def test_next_report_index_scans_multiple_directories(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        (first / "BENCH_1.json").write_text("{}")
        (second / "BENCH_5.json").write_text("{}")
        assert next_report_index([str(first), str(second), "/nonexistent"]) == 6
        assert next_report_index([str(tmp_path)]) == 1

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert env["python_version"]
        assert env["cpu_count"] >= 1

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_9.json"
        path.write_text(json.dumps({"schema": 99, "index": 9}))
        with pytest.raises(BenchReportError):
            BenchReport.load(str(path))


class TestCompare:
    def test_regression_beyond_threshold_flagged(self):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 2.0)])
        comparison = compare_reports(baseline, current, threshold=0.25)
        assert not comparison.ok
        [regression] = comparison.regressions
        assert regression.name == "headline"
        assert regression.change_fraction == pytest.approx(-0.5)

    def test_small_slowdown_within_threshold_passes(self):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 1.1)])
        assert compare_reports(baseline, current, threshold=0.25).ok

    def test_calibration_normalization_cancels_machine_speed(self):
        # Same simulator speed relative to the interpreter, but the
        # "current" machine is 2x slower overall: no regression.
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)], calibration=2_000_000.0)
        current = _report(2, [_sim_result("headline", 10_000, 2.0)], calibration=1_000_000.0)
        assert compare_reports(baseline, current, threshold=0.25).ok
        # Raw mode sees the slowdown.
        raw = compare_reports(baseline, current, threshold=0.25, normalize=False)
        assert not raw.ok

    def test_missing_scenarios_fail_the_gate(self):
        baseline = _report(1, [_sim_result("gone", 1000, 1.0)])
        current = _report(2, [_sim_result("fresh", 1000, 1.0)])
        comparison = compare_reports(baseline, current)
        assert comparison.missing_scenarios == ["gone"]
        assert comparison.new_scenarios == ["fresh"]
        # Lost coverage must not pass silently, even with no regressions.
        assert not comparison.ok
        assert "LOST COVERAGE" in comparison.render()

    def test_new_scenarios_alone_do_not_fail_the_gate(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [_sim_result("headline", 1000, 1.0), _sim_result("fresh", 1000, 1.0)])
        assert compare_reports(baseline, current).ok

    def test_invalid_threshold_rejected(self):
        baseline = _report(1, [])
        with pytest.raises(BenchReportError):
            compare_reports(baseline, baseline, threshold=0.0)

    def test_quick_mismatch_is_not_comparable(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = replace(_report(2, [_sim_result("headline", 1000, 1.0)]), quick=True)
        with pytest.raises(BenchReportError, match="quick False vs True"):
            compare_reports(baseline, current)

    def test_shared_scenario_budget_mismatch_is_not_comparable(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [_sim_result("headline", 4000, 1.0)])
        with pytest.raises(BenchReportError, match="headline instructions 1000 vs 4000"):
            compare_reports(baseline, current)

    def test_shared_scenario_repeats_mismatch_is_not_comparable(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [replace(_sim_result("headline", 1000, 1.0), repeats=2)])
        with pytest.raises(BenchReportError, match="headline repeats 1 vs 2"):
            compare_reports(baseline, current)

    def test_sweep_budget_comes_from_metadata(self):
        def sweep(instructions):
            return ScenarioResult(
                name="sweep/gcc",
                kind="sweep",
                wall_seconds=1.0,
                repeats=1,
                operations=10,
                operations_per_second=10.0,
                metadata={"instructions": instructions},
            )

        assert compare_reports(_report(1, [sweep(1500)]), _report(2, [sweep(1500)])).ok
        with pytest.raises(BenchReportError, match="sweep/gcc instructions"):
            compare_reports(_report(1, [sweep(1500)]), _report(2, [sweep(6000)]))

    def test_unshared_scenarios_need_not_match(self):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = _report(2, [_sim_result("headline", 1000, 1.0), _sim_result("fresh", 9000, 1.0)])
        assert compare_reports(baseline, current).ok


class TestCli:
    def test_cli_list_mode(self, capsys):
        assert bench_main(["--quick", "--list"]) == 0
        out = capsys.readouterr().out
        assert "headline/gcc/register-file-cache" in out

    def test_cli_list_drops_components_on_request(self, capsys):
        assert bench_main(["--quick", "--list", "--no-components"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [s.name for s in all_scenarios(quick=True) if s.kind != "component"]
        assert [line.split(": ")[0] for line in lines] == expected

    def test_cli_run_filter_and_compare_roundtrip(self, tmp_path, capsys):
        argv = [
            "--quick",
            "--repeats",
            "1",
            "--filter",
            "matrix/gcc/1-cycle",
            "--no-components",
            "--quiet",
            "--output-dir",
            str(tmp_path),
        ]
        assert bench_main(argv) == 0
        assert bench_main(argv) == 0
        reports = sorted(tmp_path.glob("BENCH_*.json"))
        assert [p.name for p in reports] == ["BENCH_1.json", "BENCH_2.json"]
        capsys.readouterr()
        code = bench_main(["compare", str(reports[0]), str(reports[1]), "--threshold", "0.9"])
        out = capsys.readouterr().out
        assert "perf gate verdict" in out
        assert code == 0

    def test_cli_compare_detects_regression(self, tmp_path, capsys):
        baseline = _report(1, [_sim_result("headline", 10_000, 1.0)])
        current = _report(2, [_sim_result("headline", 10_000, 10.0)])
        base_path = baseline.save(str(tmp_path))
        cur_path = current.save(str(tmp_path))
        assert bench_main(["compare", base_path, cur_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_compare_exits_two_on_budget_mismatch(self, tmp_path, capsys):
        baseline = _report(1, [_sim_result("headline", 1000, 1.0)])
        current = replace(_report(2, [_sim_result("headline", 1000, 1.0)]), quick=True)
        base_path = baseline.save(str(tmp_path))
        cur_path = current.save(str(tmp_path))
        assert bench_main(["compare", base_path, cur_path]) == 2
        assert "not budget-comparable" in capsys.readouterr().err

    def test_cli_rejects_bad_repeats(self, capsys):
        assert bench_main(["--repeats", "0"]) == 2

    def test_same_code_same_digest(self, tmp_path):
        """Two runs of the same scenario must agree on the stats digest."""
        scenario = with_budget(headline_scenario(quick=True), 200)
        runner = BenchmarkRunner(repeats=1, scenarios=[scenario])
        first = runner.run(index=1).scenarios[0].stats_digest
        second = runner.run(index=2).scenarios[0].stats_digest
        assert first == second

    def test_sweep_replay_and_live_agree_on_stats_digest(self):
        """The two variants of one sweep matrix must produce bit-identical
        results, equal to every point's live run: the digest over every
        point's statistics is the determinism guard for the trace-replay
        engine."""
        import hashlib

        from repro.bench.scenarios import SweepScenario
        from repro.canonical import canonical_json
        from repro.experiments.scheduler import run_simulation_point

        replay = SweepScenario(
            name="sweep/x/replay", profile="gcc", instructions=400, use_trace_replay=True
        )
        live = SweepScenario(
            name="sweep/x/live", profile="gcc", instructions=400, use_trace_replay=False
        )
        replay_out = replay.run()
        live_out = live.run()
        assert replay_out.operations == live_out.operations == 16
        assert replay_out.metadata["scheduler_summary"]["traces_recorded"] == 1

        reference = hashlib.sha256()
        for point in replay.points():
            stats = run_simulation_point(point).to_dict()
            reference.update(canonical_json(stats).encode("utf-8"))
        assert replay_out.stats_digest == reference.hexdigest()
        assert live_out.stats_digest == reference.hexdigest()

    def test_sweep_result_in_report(self):
        from repro.bench.scenarios import SweepScenario

        sweep = SweepScenario(
            name="sweep/x/replay",
            profile="gcc",
            instructions=300,
            use_trace_replay=True,
            headline_sweep=True,
        )
        runner = BenchmarkRunner(repeats=1, scenarios=[sweep])
        report = runner.run(index=1)
        [result] = report.scenarios
        assert result.kind == "sweep"
        assert result.operations == 16
        assert result.operations_per_second > 0
        assert result.rate == result.operations_per_second
        assert result.metadata["headline_sweep"] is True
        assert result.metadata["points_per_minute"] > 0


class TestStoreScenario:
    def _scenario(self):
        from repro.bench.scenarios import StoreScenario

        return StoreScenario(
            name="store_throughput/sharded-segment-log",
            entries=60,
            value_bytes=256,
            read_passes=1,
        )

    def test_store_result_in_report(self):
        runner = BenchmarkRunner(repeats=1, scenarios=[self._scenario()])
        report = runner.run(index=1)
        [result] = report.scenarios
        assert result.kind == "store"
        # 60 puts + 60 reads + 30 overwrites + 15 deletes + 1 compact
        # + 60 cold re-reads
        assert result.operations == 226
        assert result.operations_per_second > 0
        assert result.stats_digest and len(result.stats_digest) == 64
        assert result.metadata["num_shards"] == 16
        stats = result.metadata["store_stats"]
        assert stats["entries"] == 45  # 60 written, 15 deleted
        assert stats["compactions"] >= 1

    def test_scenario_is_quick_eligible_and_stably_named(self):
        from repro.bench.scenarios import store_scenarios

        (quick,) = store_scenarios(quick=True)
        (full,) = store_scenarios(quick=False)
        # The perf gate matches scenarios by name across reports, so the
        # quick CI run must carry the same name as the committed baseline.
        assert quick.name == full.name == "store_throughput/sharded-segment-log"
        assert quick.entries < full.entries

    def test_deterministic_digest(self):
        scenario = self._scenario()
        assert scenario.run().stats_digest == scenario.run().stats_digest


class TestSampledSweepScenario:
    def _scenario(self):
        from repro.bench.scenarios import SampledSweepScenario

        return SampledSweepScenario(
            name="sweep/gcc/sampled-vs-exact",
            profile="gcc",
            instructions=2000,
            sample="500:100:100",
            architectures=("mono-1c",),
        )

    def test_outcome_reports_speedup_and_interval(self):
        outcome = self._scenario().run()
        assert outcome.operations == 1  # one architecture, measured both ways
        metadata = outcome.metadata
        assert metadata["summary"]["architectures"] == ["mono-1c"]
        assert metadata["summary"]["exact_points"] == 1
        assert metadata["summary"]["sampled_points"] == 1
        assert metadata["per_point_speedup"] > 0
        assert metadata["sampling"]["stride"] == 500
        assert metadata["exact_seconds"] > 0 and metadata["sampled_seconds"] > 0

    def test_quick_and_full_share_the_gate_name(self):
        from repro.bench.scenarios import sampled_sweep_scenarios

        (quick,) = sampled_sweep_scenarios(quick=True)
        (full,) = sampled_sweep_scenarios(quick=False)
        assert quick.name == full.name == "sweep/gcc/sampled-vs-exact"
        # Quick mode shrinks the architecture set, never the stream: the
        # stride plan needs the full instruction budget to place windows.
        assert len(quick.architectures) < len(full.architectures)
        assert quick.instructions == full.instructions

    def test_deterministic_digest(self):
        assert self._scenario().run().stats_digest == self._scenario().run().stats_digest

    def test_runner_copies_sampling_metadata(self):
        runner = BenchmarkRunner(repeats=1, scenarios=[self._scenario()])
        report = runner.run(index=1)
        (result,) = report.scenarios
        assert result.kind == "sweep"
        for field in (
            "exact_seconds",
            "sampled_seconds",
            "per_point_speedup",
            "sampling",
            "summary",
        ):
            assert field in result.metadata


class TestFilter:
    def test_cli_filter_accepts_several_values(self):
        args = build_parser().parse_args(["--filter", "a", "b", "--filter", "c"])
        assert args.name_filter == ["a", "b", "c"]

    def test_runner_keeps_every_filter(self):
        runner = BenchmarkRunner(name_filter=["matrix/gcc/1-cycle", "headline"])
        names = [s.name for s in runner._selected(simulation_scenarios(quick=True))]
        assert names == ["headline/gcc/register-file-cache", "matrix/gcc/1-cycle"]

    def test_single_string_filter_still_works(self):
        runner = BenchmarkRunner(name_filter="matrix/swim")
        names = [s.name for s in runner._selected(simulation_scenarios(quick=True))]
        assert names and all("matrix/swim" in name for name in names)

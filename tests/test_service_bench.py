"""The service bench scenarios (plain and A/B) and version-stamped reports."""

from __future__ import annotations

import pytest

from repro import __version__
from repro.bench.report import environment_fingerprint
from repro.bench.runner import BenchmarkRunner
from repro.bench.scenarios import ServiceScenario, service_scenarios


def _figure6(**overrides) -> ServiceScenario:
    fields = dict(
        name="service_throughput/figure6",
        figure="figure6",
        instructions=200,
        warmup_instructions=50,
        benchmarks=("gcc",),
    )
    fields.update(overrides)
    return ServiceScenario(**fields)


class TestServiceScenario:
    def test_service_round_trip_in_report(self):
        runner = BenchmarkRunner(repeats=1, scenarios=[_figure6()])
        report = runner.run(index=1)
        [result] = report.scenarios
        assert result.kind == "service"
        assert result.operations == 3  # 3 architectures x 1 benchmark
        assert result.operations_per_second > 0
        assert result.stats_digest and len(result.stats_digest) == 64
        assert result.metadata["transport"] == "http"
        assert result.metadata["points_per_minute"] > 0
        assert result.metadata["job_counters"]["executed"] == 3

    def test_scenario_is_quick_eligible_and_stably_named(self):
        quick, quick_resilience, quick_obs = service_scenarios(quick=True)
        full, full_resilience, full_obs = service_scenarios(quick=False)
        # The perf gate matches scenarios by name across reports, so the
        # quick CI run must carry the same name as the committed baseline.
        assert quick.name == full.name == "service_throughput/figure6"
        assert quick.instructions < full.instructions
        assert quick.alternate is None
        assert quick_resilience.name == full_resilience.name == "resilience_overhead/figure6"
        assert quick_resilience.instructions < full_resilience.instructions
        assert (quick_resilience.alternate, quick_resilience.pairs) == ("noop-injector", 1)
        assert quick_obs.name == full_obs.name == "obs_overhead/figure6"
        assert (quick_obs.alternate, quick_obs.pairs) == ("bare-registry", 3)
        # The obs ratio is deliberately measured at full size even under
        # --quick: watch-poll quantisation swamps sub-second jobs.
        assert quick_obs.instructions == full_obs.instructions

    def test_deterministic_digest(self):
        scenario = _figure6()
        assert scenario.run().stats_digest == scenario.run().stats_digest


class TestABServiceScenario:
    def test_metric_wall_is_the_production_pass(self):
        """resilience_overhead reports its seams-disabled pass, not the
        wall of both passes; every pass is byte-identical to a plain
        round trip, and the seams are left uninstalled."""
        from repro.chaos import seams

        scenario = _figure6(name="resilience_overhead/figure6", alternate="noop-injector")
        result = BenchmarkRunner(repeats=1).measure(scenario)
        assert not seams.installed()
        summary = result.metadata["job_counters"]
        assert summary["pairs"] == 1
        assert summary["disabled_wall_seconds"] > 0
        assert summary["instrumented_wall_seconds"] > 0
        assert summary["instrumented_over_disabled"] > 0
        assert round(result.wall_seconds, 3) == summary["disabled_wall_seconds"]
        assert result.metadata["passes"] == ["seams-disabled", "noop-injector"]
        assert result.operations == 3
        assert result.stats_digest == _figure6().run().stats_digest

    def _fake_passes(self, monkeypatch, walls, digests=None):
        """Replace the service pass with canned walls; records each pass."""
        from repro.bench import scenarios as module
        from repro.chaos import seams

        calls = []

        def fake(figure, settings, **app_kwargs):
            index = len(calls)
            calls.append((seams.installed(), "telemetry" in app_kwargs))
            digest = digests[index] if digests else "d"
            return {"points": 3, "counters": {}, "wall_seconds": walls[index], "digest": digest}

        monkeypatch.setattr(module, "_service_pass", fake)
        return calls

    def test_interleaved_best_of_per_side(self, monkeypatch):
        # Rounds run bare then full; the metric is the best full pass.
        calls = self._fake_passes(monkeypatch, [1.0, 1.6, 0.9, 1.5, 1.2, 1.8])
        scenario = _figure6(name="obs_overhead/figure6", alternate="bare-registry", pairs=3)
        outcome = scenario.run()
        assert calls == [(False, True), (False, False)] * 3
        assert outcome.wall_seconds == 1.5
        assert outcome.metadata["job_counters"] == {
            "bare_wall_seconds": 0.9,
            "full_wall_seconds": 1.5,
            "full_over_bare": round(1.5 / 0.9, 3),
            "pairs": 3,
        }
        assert scenario.metadata()["passes"] == ["bare-registry", "full-telemetry"]

    def test_divergent_pass_fails_the_run(self, monkeypatch):
        from repro.chaos import seams
        from repro.errors import SimulationError

        self._fake_passes(monkeypatch, [1.0, 1.0], digests=["a", "b"])
        scenario = _figure6(alternate="noop-injector")
        with pytest.raises(SimulationError, match="not transparent"):
            scenario.run()
        assert not seams.installed()


class TestVersionEmbedding:
    def test_bench_environment_carries_repro_version(self):
        assert environment_fingerprint()["repro_version"] == __version__

    def test_validation_report_carries_version(self):
        from repro.validate.report import ValidationReport

        report = ValidationReport(created="now", quick=True, seeds=[1], architectures=["x"])
        assert report.to_dict()["version"] == __version__

    def test_experiments_json_report_carries_version(self):
        from repro.experiments.common import ExperimentSettings
        from repro.experiments.runner import render_json
        import json

        payload = json.loads(render_json([], ExperimentSettings()))
        assert payload["version"] == __version__

    def test_single_sourced_version(self):
        from repro.version import __version__ as module_version

        assert module_version == __version__

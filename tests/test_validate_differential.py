"""Tests for the differential runner, fault injection and report schema."""

from __future__ import annotations

import json

import pytest

from repro.errors import ValidationError
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.validate.differential import (
    filter_matrix,
    run_differential,
    validation_matrix,
)
from repro.validate.faults import InjectedFault, corrupt_instruction
from repro.validate.fuzzer import generate_scenario
from repro.validate.observer import DEFAULT_CHECKPOINT_INTERVAL, CommitObserver
from repro.validate.report import (
    Divergence,
    ScenarioValidation,
    ValidationReport,
)
from repro.workloads.kernels import kernel_workload
from repro.workloads.trace import materialize


@pytest.fixture(scope="module")
def kernel_trace():
    return materialize("dot_product", kernel_workload("dot_product", 600))


@pytest.fixture(scope="module")
def small_matrix():
    matrix = validation_matrix()
    return {
        name: matrix[name]
        for name in ("monolithic-1c", "banked-2x2r2w", "rfc-never-demand")
    }


class TestValidationMatrix:
    def test_covers_all_three_architecture_families(self):
        families = {type(factory).__name__ for factory in validation_matrix().values()}
        assert families == {
            "SingleBankedFactory",
            "OneLevelBankedFactory",
            "RegisterFileCacheFactory",
        }

    def test_covers_every_caching_policy(self):
        cached = [
            factory for factory in validation_matrix().values()
            if type(factory).__name__ == "RegisterFileCacheFactory"
        ]
        assert {factory.caching for factory in cached} == {
            "non-bypass", "ready", "always", "never",
        }
        assert {factory.fetch for factory in cached} == {
            "prefetch-first-pair", "fetch-on-demand",
        }

    def test_filter_matrix(self):
        selected = filter_matrix(validation_matrix(), "banked")
        assert set(selected) == {"banked-2x2r2w", "banked-4x2r2w"}

    def test_filter_matrix_rejects_unmatched(self):
        with pytest.raises(ValidationError, match="nothing"):
            filter_matrix(validation_matrix(), "zzz")


class TestRunDifferential:
    def test_all_architectures_agree_with_oracle(self, kernel_trace, small_matrix):
        config = ProcessorConfig(max_instructions=400)
        result = run_differential(kernel_trace, config, small_matrix)
        assert result.ok
        assert len(result.outcomes) == len(small_matrix)
        digests = {outcome.digest for outcome in result.outcomes}
        assert digests == {result.oracle["digest"]}
        counts = {outcome.count for outcome in result.outcomes}
        assert counts == {result.oracle["count"]}
        # Timing differs even though architecture state agrees.
        assert len({outcome.cycles for outcome in result.outcomes}) > 1

    def test_budget_bounds_the_committed_prefix(self, kernel_trace, small_matrix):
        config = ProcessorConfig(max_instructions=100)
        result = run_differential(kernel_trace, config, small_matrix)
        assert result.ok
        assert result.oracle["count"] == 100

    def test_rejects_empty_matrix(self, kernel_trace):
        with pytest.raises(ValidationError, match="at least one"):
            run_differential(kernel_trace, ProcessorConfig(max_instructions=50), {})

    def test_rejects_fault_on_unknown_architecture(self, kernel_trace, small_matrix):
        fault = InjectedFault(architecture="nope", commit_index=3)
        with pytest.raises(ValidationError, match="unknown architecture"):
            run_differential(
                kernel_trace, ProcessorConfig(max_instructions=50),
                small_matrix, fault=fault,
            )


class TestReplayEqualsLive:
    """``run_differential`` replays one recorded trace; every architecture
    run live on the same scenario must commit exactly what it reported."""

    def test_live_runs_match_replayed_outcomes(self):
        scenario = generate_scenario(7, quick=True)  # repro.validate --seed 7 --quick
        trace = scenario.build_trace()
        config = scenario.config()
        matrix = validation_matrix()
        result = run_differential(trace, config, scenario=scenario.describe())
        assert result.divergences == []
        outcomes = {outcome.architecture: outcome for outcome in result.outcomes}
        assert list(outcomes) == list(matrix)
        for name, factory in matrix.items():
            observer = CommitObserver(checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL)
            stats = simulate(
                iter(trace),
                factory,
                config,
                benchmark_name=trace.name,
                commit_observer=observer,
            )
            live = observer.snapshot()
            replayed = outcomes[name]
            assert replayed.error is None, name
            assert live["count"] == replayed.count, name
            assert live["digest"] == replayed.digest, name
            assert live["state"] == replayed.state, name
            assert live["checkpoints"] == replayed.checkpoints, name
            assert stats.cycles == replayed.cycles, name
            assert round(stats.ipc, 6) == replayed.ipc, name


class TestFaultInjection:
    def test_injected_fault_is_detected_at_exact_commit(self, kernel_trace, small_matrix):
        fault = InjectedFault(architecture="banked-2x2r2w", commit_index=37)
        config = ProcessorConfig(max_instructions=300)
        result = run_differential(
            kernel_trace, config, small_matrix, fault=fault,
            repro="python -m repro.validate --seed 99",
        )
        assert not result.ok
        assert len(result.divergences) == 1
        divergence = result.divergences[0]
        assert divergence.architecture == "banked-2x2r2w"
        assert divergence.kind == "commit_stream"
        assert divergence.first_divergent_commit == 37
        assert divergence.expected_record != divergence.observed_record
        assert divergence.repro == "python -m repro.validate --seed 99"
        # The untouched architectures still agree with the oracle.
        clean = [o for o in result.outcomes if o.architecture != "banked-2x2r2w"]
        assert all(o.digest == result.oracle["digest"] for o in clean)

    def test_fault_detection_is_seed_reproducible(self, small_matrix):
        fault = InjectedFault(architecture="monolithic-1c", commit_index=11)
        firsts = []
        for _ in range(2):
            scenario = generate_scenario(5, quick=True)
            result = run_differential(
                scenario.build_trace(), scenario.config(), small_matrix,
                fault=fault,
            )
            assert not result.ok
            firsts.append(result.divergences[0].first_divergent_commit)
        assert firsts == [11, 11]

    def test_fault_beyond_committed_prefix_still_fails_the_run(
        self, kernel_trace, small_matrix
    ):
        # A fault that never fires must not yield a clean verdict — the
        # self-test of the detector would pass vacuously otherwise.
        fault = InjectedFault(architecture="monolithic-1c", commit_index=10**6)
        config = ProcessorConfig(max_instructions=120)
        result = run_differential(kernel_trace, config, small_matrix, fault=fault)
        assert not result.ok
        assert [d.kind for d in result.divergences] == ["fault_not_triggered"]
        assert "never fired" in result.divergences[0].detail

    def test_corrupt_instruction_changes_destination(self, kernel_trace):
        original = kernel_trace[0]
        corrupted = corrupt_instruction(original)
        assert corrupted.dest != original.dest
        assert corrupted.seq == original.seq

    def test_fault_spec_parsing(self):
        fault = InjectedFault.parse("rfc-non-bypass:12")
        assert fault.architecture == "rfc-non-bypass"
        assert fault.commit_index == 12
        with pytest.raises(ValidationError):
            InjectedFault.parse("no-colon")
        with pytest.raises(ValidationError):
            InjectedFault.parse("arch:notanint")
        with pytest.raises(ValidationError):
            InjectedFault(architecture="x", commit_index=-1)


class TestReportSchema:
    def test_scenario_validation_round_trips(self, kernel_trace, small_matrix):
        config = ProcessorConfig(max_instructions=120)
        result = run_differential(kernel_trace, config, small_matrix)
        rebuilt = ScenarioValidation.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.ok == result.ok
        assert rebuilt.oracle == result.oracle
        assert [o.digest for o in rebuilt.outcomes] == [
            o.digest for o in result.outcomes
        ]

    def test_report_save_load_render(self, tmp_path):
        report = ValidationReport(
            created="2026-07-30T00:00:00+00:00",
            quick=True,
            seeds=[1, 2],
            architectures=["monolithic-1c"],
            scenarios=[
                ScenarioValidation(
                    scenario={"seed": 1, "source": "kernel", "benchmark": "x"},
                    oracle={"count": 10, "digest": "d"},
                ),
                ScenarioValidation(
                    scenario={"seed": 2, "source": "program", "benchmark": "y"},
                    oracle={"count": 5, "digest": "e"},
                    divergences=[
                        Divergence(
                            architecture="monolithic-1c",
                            kind="commit_stream",
                            detail="boom",
                            first_divergent_commit=3,
                            repro="python -m repro.validate --seed 2",
                        )
                    ],
                ),
            ],
        )
        assert not report.ok
        assert report.divergence_count == 1
        path = report.save(str(tmp_path / "validate.json"))
        loaded = ValidationReport.load(path)
        assert loaded.divergence_count == 1
        assert loaded.scenarios[1].divergences[0].first_divergent_commit == 3
        rendered = report.render()
        assert "verdict: DIVERGENT" in rendered
        assert "repro" in rendered

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999}), encoding="utf-8")
        with pytest.raises(ValidationError, match="schema"):
            ValidationReport.load(str(path))

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="cannot read"):
            ValidationReport.load(str(path))

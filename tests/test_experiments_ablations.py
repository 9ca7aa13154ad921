"""Tests of the ablation experiments (reduced scale)."""

import pytest

from repro.experiments import ablations
from repro.experiments.common import (
    ExperimentSettings,
    OneLevelBankedFactory,
    ResultsView,
    one_cycle_factory,
)
from repro.experiments.runner import plan_experiments
from repro.experiments.scheduler import SimulationPoint, SweepEngine
from repro.experiments.store import ResultStore

QUICK = ExperimentSettings(instructions_per_benchmark=700, warmup_instructions=200,
                           benchmarks=["m88ksim", "swim"])


@pytest.fixture(scope="module")
def results() -> ResultsView:
    """Every point the ablations declare, simulated once."""
    store = ResultStore()
    SweepEngine(store=store, jobs=1).execute(plan_experiments(["ablations"], QUICK))
    return ResultsView(QUICK, store)


class TestUpperCapacitySweep:
    def test_larger_upper_level_does_not_hurt(self, results):
        result = ablations.upper_capacity_sweep(QUICK, results)
        assert result.data["capacities"] == list(ablations.UPPER_CAPACITIES)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            assert series["32 regs"] >= series["4 regs"] * 0.97
            assert series["1-cycle file"] >= series["32 regs"] * 0.95

    def test_render_contains_capacities(self, results):
        result = ablations.upper_capacity_sweep(QUICK, results)
        for capacity in ablations.UPPER_CAPACITIES:
            assert f"{capacity} regs" in result.body


class TestCachingPolicySweep:
    def test_all_policies_present(self, results):
        result = ablations.caching_policy_sweep(QUICK, results)
        series = result.data["series"]["SpecFP95"]
        assert set(series) == {"non-bypass", "ready", "always", "never"}

    def test_never_caching_is_worst_or_equal(self, results):
        result = ablations.caching_policy_sweep(QUICK, results)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            best_real = max(series["non-bypass"], series["ready"], series["always"])
            assert series["never"] <= best_real * 1.02


class TestBusCountSweep:
    def test_more_buses_do_not_hurt(self, results):
        result = ablations.bus_count_sweep(QUICK, results)
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data["series"][suite]
            assert set(series) == {f"{buses} buses" for buses in ablations.BUS_COUNTS}
            assert series["4 buses"] >= series["1 buses"] * 0.97


class TestOneLevelComparison:
    def test_contains_reference_architectures(self, results):
        result = ablations.one_level_banked_comparison(QUICK, results)
        series = result.data["series"]["SpecInt95"]
        for banks in ablations.BANK_COUNTS:
            assert f"one-level, {banks} banks" in series
        assert "register file cache" in series
        assert "1-cycle file" in series

    def test_one_level_banked_close_to_one_cycle_with_enough_ports(self):
        # Eight ports per bank is no figure's declaration: simulate the
        # two architectures directly, one point per benchmark each.
        config = QUICK.processor_config()

        def point(benchmark, factory, key):
            return SimulationPoint(benchmark=benchmark, factory=factory,
                                   architecture=key, config=config,
                                   warmup_instructions=QUICK.warmup_instructions)

        store = ResultStore()
        engine = SweepEngine(store=store, jobs=1)
        for benchmark in QUICK.benchmarks:
            banked = point(benchmark,
                           OneLevelBankedFactory(num_banks=2, read_ports_per_bank=8,
                                                 write_ports_per_bank=8),
                           "one-level/2banks")
            one_cycle = point(benchmark, one_cycle_factory(), "1-cycle")
            engine.execute([banked, one_cycle])
            assert (store.get(banked.store_key()).ipc
                    >= store.get(one_cycle.store_key()).ipc * 0.9)


class TestCombinedRun:
    def test_run_concatenates_all_ablations(self, results):
        result = ablations.render(QUICK, results)
        assert "upper-level capacity" in result.body
        assert "caching policy" in result.body
        assert "buses" in result.body
        assert "one-level" in result.body
        assert len(result.data) == 4

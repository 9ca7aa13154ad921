"""Benchmarks for the design-choice ablations (beyond the paper's figures)."""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments import ablations
from repro.experiments.common import ResultsView
from repro.experiments.runner import plan_experiments
from repro.experiments.scheduler import SweepEngine


def _ablation(part, settings, store):
    """Simulate the ablations' points (once per shared store), render one part."""
    SweepEngine(store=store, jobs=1).execute(plan_experiments(["ablations"], settings))
    return part(settings, ResultsView(settings, store))


def bench_ablation_upper_capacity(benchmark, bench_settings, bench_store):
    """Upper-level capacity sweep of the register file cache."""
    result = run_once(benchmark, _ablation, ablations.upper_capacity_sweep,
                      bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        series = result.data["series"][suite]
        assert series["32 regs"] >= series["8 regs"] * 0.97


def bench_ablation_caching_policies(benchmark, bench_settings, bench_store):
    """Non-bypass / ready / always / never caching comparison."""
    result = run_once(benchmark, _ablation, ablations.caching_policy_sweep,
                      bench_settings, bench_store)
    print("\n" + result.render())
    series = result.data["series"]["SpecFP95"]
    assert len(series) == 4


def bench_ablation_bus_bandwidth(benchmark, bench_settings, bench_store):
    """Inter-level bus count sweep."""
    result = run_once(benchmark, _ablation, ablations.bus_count_sweep,
                      bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        series = result.data["series"][suite]
        assert series["4 buses"] >= series["1 buses"] * 0.97


def bench_ablation_one_level_banked(benchmark, bench_settings, bench_store):
    """One-level multiple-banked organisation vs the register file cache."""
    result = run_once(benchmark, _ablation, ablations.one_level_banked_comparison,
                      bench_settings, bench_store)
    print("\n" + result.render())
    series = result.data["series"]["SpecInt95"]
    assert "register file cache" in series

"""Benchmarks regenerating every figure and table of the paper.

Each benchmark runs the corresponding experiment once (at reduced scale —
see ``conftest.py``) and prints the reproduced rows/series, so a
``pytest benchmarks/ --benchmark-only -s`` run doubles as a results
report.  Shape assertions guard the qualitative conclusions the paper
draws from each figure.
"""

from __future__ import annotations

from benchmarks.conftest import run_figure, run_once
from repro.experiments import figure1


def bench_figure1_register_sweep(benchmark, bench_settings, bench_store):
    """Figure 1: IPC vs number of physical registers."""
    result = run_once(benchmark, run_figure, "figure1", bench_settings, bench_store)
    print("\n" + result.render())
    series = result.data["series"]
    counts = list(figure1.REGISTER_COUNTS)
    for suite in ("SpecInt95", "SpecFP95"):
        values = series[suite]
        # IPC must not degrade as registers are added, and must flatten.
        assert values[counts.index(192)] >= values[counts.index(64)] * 0.97


def bench_figure2_latency_and_bypass(benchmark, bench_settings, bench_store):
    """Figure 2: 1-cycle vs 2-cycle vs 2-cycle/1-bypass."""
    result = run_once(benchmark, run_figure, "figure2", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        series = result.data[suite]
        one = series["1-cycle, 1-bypass level"]["Hmean"]
        full = series["2-cycle, 2-bypass levels"]["Hmean"]
        single = series["2-cycle, 1-bypass level"]["Hmean"]
        assert one >= full >= single


def bench_figure3_register_occupancy(benchmark, bench_settings, bench_store):
    """Figure 3: distribution of registers holding needed values."""
    result = run_once(benchmark, run_figure, "figure3", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        needed = result.data[suite]["value_and_instruction"]
        # A small number of registers covers the vast majority of cycles.
        assert needed[24] > 75.0


def bench_value_reuse_statistic(benchmark, bench_settings, bench_store):
    """Section 3: fraction of values read at most once."""
    result = run_once(benchmark, run_figure, "value_reuse", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        assert result.data[suite]["read_at_most_once"] > 0.55


def bench_figure5_caching_and_fetch_policies(benchmark, bench_settings, bench_store):
    """Figure 5: the four caching/fetch policy combinations."""
    result = run_once(benchmark, run_figure, "figure5", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        series = result.data[suite]
        best = max(values["Hmean"] for values in series.values())
        worst = min(values["Hmean"] for values in series.values())
        # The policies are within a modest band of each other.
        assert best / worst < 1.35


def bench_figure6_rfc_vs_single_bypass_baselines(benchmark, bench_settings, bench_store):
    """Figure 6: register file cache vs 1-cycle and 2-cycle (1 bypass)."""
    result = run_once(benchmark, run_figure, "figure6", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        series = result.data[suite]
        one = series["1-cycle"]["Hmean"]
        rfc = series["non-bypass caching + prefetch-first-pair"]["Hmean"]
        two = series["2-cycle"]["Hmean"]
        assert two < rfc <= one * 1.05


def bench_figure7_rfc_vs_full_bypass(benchmark, bench_settings, bench_store):
    """Figure 7: register file cache vs 2-cycle full-bypass file."""
    result = run_once(benchmark, run_figure, "figure7", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        pct = result.data[suite + "_summary"]["vs_two_cycle_full_pct"]
        # The cache is close to (typically slightly below) the full-bypass file.
        assert -35.0 < pct < 15.0


def bench_figure9_table2_throughput(benchmark, bench_settings, bench_store):
    """Table 2 + Figure 9: throughput once access time is factored in."""
    result = run_once(benchmark, run_figure, "figure9", bench_settings, bench_store)
    print("\n" + result.render())
    for suite in ("SpecInt95", "SpecFP95"):
        best = result.data[suite + "_best"]
        rfc = best["non-bypass caching + prefetch-first-pair"]
        # The headline claim: a large throughput win over the 1-cycle file.
        assert rfc > best["1-cycle"] * 1.3


def bench_headline_claims(benchmark, bench_settings, bench_store):
    """The paper's headline claims, paper vs measured."""
    result = run_once(benchmark, run_figure, "headline", bench_settings, bench_store)
    print("\n" + result.render())
    measured = result.data["measured"]
    assert measured["SpecInt95|throughput vs 1-cycle (best config)"] > 30.0
    assert measured["SpecFP95|throughput vs 1-cycle (best config)"] > 30.0

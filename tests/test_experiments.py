"""Tests of the experiment harness (small budgets so they stay fast)."""

import pytest

from repro.analysis.metrics import harmonic_mean
from repro.errors import MissingResultError
from repro.experiments import figure1, figure6, value_reuse
from repro.experiments.common import (
    ExperimentSettings,
    ResultsView,
    register_file_cache_factory,
    with_hmean,
)
from repro.experiments.runner import (
    EXPERIMENTS,
    build_parser,
    plan_experiments,
    render_experiments,
    run_experiments,
)
from repro.experiments.scheduler import SweepEngine
from repro.experiments.store import ResultStore
from repro.pipeline.stats import SimulationStats


#: One small integer and one small FP benchmark keep harness tests quick.
QUICK = ExperimentSettings(instructions_per_benchmark=800, warmup_instructions=200,
                           benchmarks=["m88ksim", "swim"])

#: The experiments the figure tests render (figure 8 and the ablations
#: have their own, cheaper settings).
FIGURES = ["figure1", "figure2", "figure3", "value_reuse", "figure5", "figure6",
           "figure7", "figure9", "headline"]


@pytest.fixture(scope="module")
def store() -> ResultStore:
    """A store holding every point the figure tests render."""
    store = ResultStore()
    SweepEngine(store=store, jobs=1).execute(plan_experiments(FIGURES, QUICK))
    return store


@pytest.fixture(scope="module")
def figures(store) -> dict:
    return dict(zip(FIGURES, render_experiments(FIGURES, QUICK, store)))


class TestCommon:
    def test_settings_suite_filtering(self):
        assert QUICK.suite_selection("int") == ["m88ksim"]
        assert QUICK.suite_selection("fp") == ["swim"]
        full = ExperimentSettings()
        assert len(full.suite_selection("all")) == 18

    def test_settings_validation(self):
        with pytest.raises(Exception):
            ExperimentSettings(instructions_per_benchmark=0)

    def test_processor_config_override(self):
        config = QUICK.processor_config(num_int_physical=64)
        assert config.max_instructions == 800
        assert config.num_int_physical == 64

    def test_results_view_memoizes(self, store):
        results = ResultsView(QUICK, store)
        first = results.stats("fp", value_reuse.ONE_CYCLE)["swim"]
        second = results.stats("fp", value_reuse.ONE_CYCLE)["swim"]
        assert first is second
        assert isinstance(first, SimulationStats)

    def test_suite_helpers(self, store):
        ipcs = ResultsView(QUICK, store).ipcs("fp", value_reuse.ONE_CYCLE)
        assert set(ipcs) == {"swim"}
        extended = with_hmean(ipcs)
        assert extended["Hmean"] == pytest.approx(harmonic_mean(ipcs.values()))

    def test_render_raises_on_a_missing_point(self, store):
        """Render never simulates: a declared point absent from the store
        is an error naming that point, not a silent in-process run."""
        partial = ResultStore()
        missing = figure6.ARCHITECTURES[1].points(QUICK, ["swim"])[0]
        for point in plan_experiments(["figure6"], QUICK):
            if point.store_key() != missing.store_key():
                partial.put(point.store_key(), store.peek(point.store_key()))
        with pytest.raises(MissingResultError,
                           match="'swim' on architecture "
                                 "'rfc/non-bypass/prefetch-first-pair'"):
            render_experiments(["figure6"], QUICK, partial)
        assert partial.counters()["stores"] == len(plan_experiments(["figure6"], QUICK)) - 1

    def test_register_file_cache_factory_policies(self):
        cache = register_file_cache_factory(caching="ready", fetch="fetch-on-demand")()
        assert cache.caching_policy.name == "ready"
        assert cache.fetch_policy.name == "fetch-on-demand"


class TestFigureExperiments:
    def test_figure1_shape(self, figures):
        result = figures["figure1"]
        counts = list(figure1.REGISTER_COUNTS)
        assert result.data["register_counts"] == counts
        series = result.data["series"]
        assert len(series["SpecInt95"]) == len(counts)
        fp = series["SpecFP95"]
        assert fp[counts.index(128)] >= fp[counts.index(48)] * 0.95
        assert "Figure 1" in result.render()

    def test_figure2_ordering(self, figures):
        result = figures["figure2"]
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data[suite]
            one = series["1-cycle, 1-bypass level"]["Hmean"]
            full = series["2-cycle, 2-bypass levels"]["Hmean"]
            single = series["2-cycle, 1-bypass level"]["Hmean"]
            assert one >= full >= single

    def test_figure3_cdf_properties(self, figures):
        result = figures["figure3"]
        for suite in ("SpecInt95", "SpecFP95"):
            cdf = result.data[suite]["value_and_instruction"]
            ready = result.data[suite]["value_and_ready"]
            assert len(cdf) == 33
            assert cdf[-1] == pytest.approx(100.0, abs=0.01)
            # Ready values are a subset of needed values.
            assert all(r >= n - 1e-9 for r, n in zip(ready, cdf))

    def test_figure5_has_four_policies(self, figures):
        result = figures["figure5"]
        assert len(result.data["SpecInt95"]) == 4

    def test_figure6_rfc_between_baselines(self, figures):
        result = figures["figure6"]
        for suite in ("SpecInt95", "SpecFP95"):
            series = result.data[suite]
            one = series["1-cycle"]["Hmean"]
            rfc = series["non-bypass caching + prefetch-first-pair"]["Hmean"]
            two = series["2-cycle"]["Hmean"]
            assert two <= rfc <= one * 1.05

    def test_figure7_rfc_close_to_full_bypass(self, figures):
        result = figures["figure7"]
        summary = result.data["SpecFP95_summary"]["vs_two_cycle_full_pct"]
        assert -40.0 < summary < 20.0

    def test_value_reuse_fractions(self, figures):
        result = figures["value_reuse"]
        for suite in ("SpecInt95", "SpecFP95"):
            fractions = result.data[suite]
            total = (fractions["never_read"] + fractions["read_once"]
                     + fractions["read_twice"] + fractions["read_three_plus"])
            assert total == pytest.approx(1.0, abs=1e-6)
            assert fractions["read_at_most_once"] > 0.5

    def test_figure9_table2_relative_throughput(self, figures):
        result = figures["figure9"]
        assert len(result.data["table2"]) == 4
        series = result.data["SpecInt95"]
        assert series["1-cycle"]["C1"] == pytest.approx(1.0)
        # The register file cache must clearly outperform the 1-cycle design
        # once the access time is factored in.
        rfc_best = max(series["non-bypass caching + prefetch-first-pair"].values())
        one_best = max(series["1-cycle"].values())
        assert rfc_best > one_best

    def test_headline_contains_all_claims(self, figures):
        result = figures["headline"]
        assert len(result.data["measured"]) == 8
        assert "paper" in result.body


class TestFigure8:
    def test_figure8_pareto_points(self):
        # Use an even smaller budget: figure 8 sweeps many configurations.
        settings = ExperimentSettings(instructions_per_benchmark=400,
                                      warmup_instructions=100,
                                      benchmarks=["m88ksim", "swim"])
        (result,) = run_experiments(["figure8"], settings)
        for suite in ("SpecInt95", "SpecFP95"):
            for architecture, points in result.data[suite].items():
                assert points, f"no pareto points for {architecture}"
                areas = [p["area_10Klambda2"] for p in points]
                perfs = [p["relative_performance"] for p in points]
                assert areas == sorted(areas)
                # Performance climbs along the frontier; it may only
                # repeat on an exact (area, performance) tie — distinct
                # port mixes pricing and performing identically are all
                # legitimate frontier members.
                pairs = list(zip(areas, perfs))
                for (area_a, perf_a), (area_b, perf_b) in zip(pairs, pairs[1:]):
                    assert perf_b > perf_a or (
                        perf_b == perf_a and area_b == area_a
                    )


class TestRunner:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "headline"
        assert args.instructions == 8000

    def test_registry_contains_all_experiments(self):
        assert {"figure1", "figure2", "figure3", "figure5", "figure6", "figure7",
                "figure8", "figure9", "value_reuse", "headline",
                "ablations"} == set(EXPERIMENTS)

    def test_run_experiments_shares_cache(self):
        results = run_experiments(["figure2"], QUICK)
        assert len(results) == 1
        # The report carries no timing field: serial and parallel runs of
        # one plan must compare equal byte for byte.
        assert "elapsed_seconds" not in results[0].data

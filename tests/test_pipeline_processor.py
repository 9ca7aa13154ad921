"""Integration tests of the cycle-level processor model."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.isa.assembler import assemble
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor, simulate
from repro.regfile.base import RegisterFileModel
from repro.regfile.cache import RegisterFileCache
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.workloads.kernels import dot_product_program
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def _one_cycle():
    return SingleBankedRegisterFile(latency=1)


def _two_cycle_one_bypass():
    return SingleBankedRegisterFile(latency=2, bypass_levels=1)


class TestBasicExecution:
    def test_straight_line_program_commits_everything(self, small_config):
        program = assemble("""
            li r1, 1
            li r2, 2
            add r3, r1, r2
            add r4, r3, r3
            add r5, r4, r1
        """)
        stats = simulate(program.run(), _one_cycle, ProcessorConfig(max_instructions=100))
        assert stats.committed_instructions == 5
        assert stats.cycles > 0
        assert 0 < stats.ipc <= 8

    def test_dependent_chain_takes_at_least_chain_length_cycles(self):
        program = assemble("\n".join(["li r1, 1"] + ["add r1, r1, r1"] * 20))
        stats = simulate(program.run(), _one_cycle, ProcessorConfig(max_instructions=100))
        assert stats.cycles >= 20

    def test_kernel_runs_end_to_end(self):
        stats = simulate(dot_product_program(length=32).run(), _one_cycle,
                         ProcessorConfig(max_instructions=2000), "dot_product")
        assert stats.committed_instructions == 32 * 8 + 6
        assert stats.dcache_hits + stats.dcache_misses > 0

    def test_max_instructions_stops_the_run(self, gcc_workload):
        config = ProcessorConfig(max_instructions=300)
        stats = simulate(gcc_workload.instructions(1000), _one_cycle, config, "gcc")
        assert stats.committed_instructions == 300

    def test_stream_exhaustion_stops_the_run(self, gcc_workload):
        config = ProcessorConfig(max_instructions=10_000)
        stats = simulate(gcc_workload.instructions(400), _one_cycle, config, "gcc")
        assert stats.committed_instructions <= 400
        assert stats.committed_instructions > 300  # nearly everything commits

    def test_mismatched_regfile_timing_rejected(self, gcc_workload):
        toggles = iter([1, 2])

        def alternating():
            return SingleBankedRegisterFile(latency=next(toggles))

        with pytest.raises(ConfigurationError):
            Processor(gcc_workload.instructions(100), alternating)

    def test_mixed_regfile_organisations_rejected(self, gcc_workload):
        # Same timing (1 read stage, 1 bypass level), different organisation.
        models = iter([SingleBankedRegisterFile(latency=1), RegisterFileCache()])
        with pytest.raises(ConfigurationError):
            Processor(gcc_workload.instructions(100), lambda: next(models))

    def test_regfile_model_without_issue_path_rejected(self, gcc_workload):
        class Unbound(RegisterFileModel):
            def begin_cycle(self, cycle):
                pass

            def plan_operand_read(self, register, state, issue_cycle):
                raise AssertionError("never planned")

            def can_claim_reads(self, accesses):
                return True

            def claim_reads(self, accesses):
                pass

            def writeback(self, register, state, cycle, window):
                return cycle

        with pytest.raises(ConfigurationError, match="no issue path"):
            Processor(gcc_workload.instructions(100), Unbound)

    def test_livelock_guard_raises(self, gcc_workload):
        config = ProcessorConfig(max_instructions=5000, max_cycles=3)
        with pytest.raises(SimulationError):
            simulate(gcc_workload.instructions(5000), _one_cycle, config, "gcc")


class TestStatisticsPlausibility:
    def test_branch_and_cache_statistics_populated(self, gcc_workload, small_config):
        stats = simulate(gcc_workload.instructions(2500), _one_cycle, small_config, "gcc")
        assert stats.branch_predictions > 0
        assert 0.0 <= stats.branch_misprediction_rate <= 1.0
        assert stats.icache_hits > 0
        assert stats.dcache_hits > 0
        assert stats.operands_from_bypass > 0
        assert stats.operands_from_file > 0

    def test_value_read_distribution_populated(self, swim_workload, small_config):
        stats = simulate(swim_workload.instructions(2500), _one_cycle, small_config, "swim")
        assert sum(stats.value_read_distribution.values()) > 200
        assert 0.0 < stats.read_at_most_once_fraction() <= 1.0

    def test_occupancy_collection_optional(self, swim_workload):
        config = ProcessorConfig(max_instructions=600, collect_occupancy=True)
        stats = simulate(swim_workload.instructions(1200), _one_cycle, config, "swim")
        assert sum(stats.occupancy_needed.values()) == stats.cycles
        config_off = ProcessorConfig(max_instructions=600)
        stats_off = simulate(swim_workload.instructions(1200), _one_cycle, config_off, "swim")
        assert sum(stats_off.occupancy_needed.values()) == 0

    def test_regfile_statistics_exported(self, swim_workload, small_config):
        stats = simulate(swim_workload.instructions(2500), RegisterFileCache,
                         small_config, "swim")
        assert any(key.endswith("results_cached") for key in stats.regfile_statistics)


class TestArchitecturalOrdering:
    """The relative ordering the whole paper is built on."""

    @pytest.mark.parametrize("benchmark_name", ["ijpeg", "swim"])
    def test_one_cycle_beats_two_cycle_single_bypass(self, benchmark_name, small_config):
        workload = SyntheticWorkload(get_profile(benchmark_name))
        fast = simulate(workload.instructions(2500), _one_cycle, small_config, benchmark_name)
        slow = simulate(workload.instructions(2500), _two_cycle_one_bypass,
                        small_config, benchmark_name)
        assert fast.ipc > slow.ipc

    @pytest.mark.parametrize("benchmark_name", ["ijpeg", "swim"])
    def test_full_bypass_recovers_most_of_the_loss(self, benchmark_name, small_config):
        workload = SyntheticWorkload(get_profile(benchmark_name))
        full = simulate(workload.instructions(2500),
                        lambda: SingleBankedRegisterFile(latency=2, bypass_levels=2),
                        small_config, benchmark_name)
        single = simulate(workload.instructions(2500), _two_cycle_one_bypass,
                          small_config, benchmark_name)
        assert full.ipc > single.ipc

    @pytest.mark.parametrize("benchmark_name", ["ijpeg", "swim"])
    def test_register_file_cache_between_the_two(self, benchmark_name, small_config):
        workload = SyntheticWorkload(get_profile(benchmark_name))
        one = simulate(workload.instructions(2500), _one_cycle, small_config, benchmark_name)
        rfc = simulate(workload.instructions(2500), RegisterFileCache, small_config, benchmark_name)
        two = simulate(workload.instructions(2500), _two_cycle_one_bypass,
                       small_config, benchmark_name)
        assert two.ipc < rfc.ipc <= one.ipc * 1.02

    def test_port_starved_configuration_is_slower(self, small_config):
        workload = SyntheticWorkload(get_profile("ijpeg"))
        wide = simulate(workload.instructions(2500), _one_cycle, small_config, "ijpeg")
        narrow = simulate(
            workload.instructions(2500),
            lambda: SingleBankedRegisterFile(latency=1, read_ports=1, write_ports=1),
            small_config, "ijpeg",
        )
        assert narrow.ipc < wide.ipc

    def test_more_physical_registers_do_not_hurt(self, tiny_config):
        workload = SyntheticWorkload(get_profile("swim"))
        small = simulate(workload.instructions(1200),
                         _one_cycle, tiny_config.with_overrides(num_int_physical=48,
                                                                num_fp_physical=48),
                         "swim")
        large = simulate(workload.instructions(1200),
                         _one_cycle, tiny_config.with_overrides(num_int_physical=192,
                                                                num_fp_physical=192),
                         "swim")
        assert large.ipc >= small.ipc * 0.98

    def test_deterministic_replay(self, tiny_config):
        workload = SyntheticWorkload(get_profile("li"))
        first = simulate(workload.instructions(1200), _one_cycle, tiny_config, "li")
        second = simulate(workload.instructions(1200), _one_cycle, tiny_config, "li")
        assert first.ipc == second.ipc
        assert first.cycles == second.cycles

"""Cycle-level model of a dynamically scheduled superscalar processor.

The pipeline follows the paper's 6-stage structure (fetch, decode/rename,
read, execute, write-back, commit); the read stage takes ``read_stages``
cycles as dictated by the register file architecture under study, and
dependent-instruction timing honours the number of bypass levels the
architecture implements.

The processor is *stream driven*: it consumes a dynamic instruction
stream (correct path only) and models timing.  Branch mispredictions
therefore stall fetch from the mispredicted branch until it resolves,
charging the full front-end refill penalty, which is the standard
trace-driven modelling approach.

Implementation note: ``run`` is the hottest loop of the repository — the
whole experiment harness is bounded by it — so the stage methods trade a
little indirection for speed.  The register file organisation is bound
once, at construction (``_bind_register_file_paths``): one issue path per
model type — a single-banked file is planned straight from the operands'
value states with no per-operand objects, a banked file plans an
``OperandAccess`` per operand for its bank id, and the register file
cache plans each operand without allocating and falls back to fills on a
miss — plus the per-cycle, write-back, issue and release hooks the model
reports it needs; a hook it does not need is ``None`` and skipped.
Collaborator dictionaries that are never rebound (issue window entries,
ROB entries, scoreboard states) are read directly, and stages are skipped
outright on the cycles where their input queues are provably empty.
Every change here is guarded by the golden-stats parity tests
(``tests/test_golden_stats.py``): optimizations must leave
``SimulationStats`` bit-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.execute.bypass import BypassNetwork
from repro.execute.functional_units import FunctionalUnitPool
from repro.execute.issue_queue import IssueQueue, IssueQueueEntry
from repro.execute.rob import ReorderBuffer, ROBEntry
from repro.execute.scoreboard import ValueScoreboard
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchedInstruction, FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction, RegisterClass
from repro.isa.opcodes import OpClass
from repro.memsys.cache import CacheModel
from repro.memsys.lsq import LoadStoreQueue
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import OccupancySample, SimulationStats
from repro.regfile.banked import OneLevelBankedRegisterFile
from repro.regfile.base import OperandAccess, OperandSource, RegisterFileModel
from repro.regfile.cache import RegisterFileCache
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.rename.renamer import PhysicalRegister, Renamer


_BYPASS = OperandSource.BYPASS
_FILE = OperandSource.FILE
_MISS = OperandSource.MISS

# A completion (write back scheduled for a given cycle) is a plain
# ``(renamed, ex_end_cycle, fetched)`` tuple: one is built per issued
# instruction and unpacked once at write-back, so a class adds nothing
# but constructor overhead.


class Processor:
    """One simulated processor instance (one workload, one architecture)."""

    def __init__(
        self,
        workload: Optional[Iterable[DynamicInstruction]],
        regfile_factory: Callable[[], RegisterFileModel],
        config: Optional[ProcessorConfig] = None,
        benchmark_name: str = "workload",
        commit_observer=None,
        frontend=None,
    ) -> None:
        self.config = config or ProcessorConfig()
        self.benchmark_name = benchmark_name
        # Optional commit-stream observer (see repro.validate.observer).
        # It is read-only — attaching one must leave every statistic
        # bit-identical — and costs one None check per commit when absent.
        self.commit_observer = commit_observer

        self._regfiles: Dict[RegisterClass, RegisterFileModel] = {
            RegisterClass.INT: regfile_factory(),
            RegisterClass.FP: regfile_factory(),
        }
        int_rf = self._regfiles[RegisterClass.INT]
        fp_rf = self._regfiles[RegisterClass.FP]
        if (int_rf.read_stages, int_rf.bypass_levels) != (fp_rf.read_stages, fp_rf.bypass_levels):
            raise ConfigurationError(
                "integer and FP register files must share the same timing"
            )
        self._int_rf = int_rf
        self._fp_rf = fp_rf
        self.read_stages = int_rf.read_stages
        self.bypass = BypassNetwork(int_rf.read_stages, int_rf.bypass_levels)

        self.scoreboard = ValueScoreboard()
        self.renamer = Renamer(self.config.num_int_physical, self.config.num_fp_physical)
        self._seed_architected_registers()

        self.window = IssueQueue(
            self.config.instruction_window, self.scoreboard, self.bypass,
            track_consumers=int_rf.needs_consumer_index,
        )
        self.rob = ReorderBuffer(self.config.rob_size)
        self.lsq = LoadStoreQueue(self.config.lsq_size)
        self.fu_pool = FunctionalUnitPool(self.config.functional_units)

        self.dcache = CacheModel(self.config.dcache, name="dcache")
        if frontend is not None:
            # The frontend-source seam: anything implementing the protocol
            # of :class:`~repro.frontend.fetch.FetchUnit` (``exhausted``,
            # ``fetch_into``, ``on_branch_writeback``, ``icache_hits`` /
            # ``icache_misses``) can drive the pipeline — notably
            # :class:`repro.trace.TraceReplayer`, which replays a recorded
            # decoded stream in place of live fetch.
            self.icache = None
            self.predictor = None
            self.btb = None
            self.fetch_unit = frontend
        else:
            if workload is None:
                raise ConfigurationError(
                    "a workload stream is required unless a frontend is given"
                )
            self.icache = CacheModel(self.config.icache, name="icache")
            self.predictor = GSharePredictor(self.config.branch_predictor_entries)
            self.btb = BranchTargetBuffer(self.config.btb_entries)
            self.fetch_unit = FetchUnit(
                iter(workload), self.icache, self.predictor, self.btb,
                width=self.config.fetch_width,
            )

        self._decode_queue: deque[FetchedInstruction] = deque()
        # cycle -> [(renamed, ex_end_cycle, fetched), ...]
        self._completions: Dict[int, List[tuple]] = {}

        # Collaborator dictionaries that are mutated in place and never
        # rebound (scoreboard states, ROB entries).
        self._sb_states = self.scoreboard._states
        self._rob_entries = self.rob._entries
        self._bind_register_file_paths()

        self.stats = SimulationStats(
            benchmark=benchmark_name,
            architecture=int_rf.describe(),
        )
        # Run state lives on the instance so that :meth:`run` can resume
        # after :meth:`raise_commit_limit`.
        self.cycle = 0
        self.max_instructions = self.config.max_instructions
        self.max_cycles = self.config.effective_max_cycles

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------

    def _seed_architected_registers(self) -> None:
        """The initial logical→physical mappings hold architected values."""
        from repro.isa.instruction import INT_LOGICAL_REGISTERS, FP_LOGICAL_REGISTERS

        for logical in INT_LOGICAL_REGISTERS + FP_LOGICAL_REGISTERS:
            physical = self.renamer.current_mapping(logical)
            self.scoreboard.seed_architected(physical)

    def _bind_register_file_paths(self) -> None:
        """Pick this architecture's issue path and register file hooks.

        Each organisation gets exactly one issue path, chosen here from the
        model's type, so the hot loop never dispatches per operand.  A hook
        the model reports as ``None`` (unlimited ports, no prefetching, no
        per-register residency) is skipped outright.  The issue path is
        kept as a plain function: a bound method of ``self`` stored on
        ``self`` would be a reference cycle, leaving every finished
        processor to the cyclic garbage collector.
        """
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        if type(int_rf) is not type(fp_rf):
            raise ConfigurationError(
                "integer and FP register files must share one organisation"
            )
        if isinstance(int_rf, SingleBankedRegisterFile):
            self._issue_path = Processor._try_issue_single_banked
            self._int_reads_fit = int_rf.read_port_check()
            self._fp_reads_fit = fp_rf.read_port_check()
            # The bypass network's arithmetic: a source is obtainable once
            # ``earliest_consumer_execute(ex_end) <= issue + read_stages``,
            # i.e. its producer finished by ``issue + bypass_levels - 1``.
            self._bypass_reach = int_rf.bypass_levels - 1
        elif isinstance(int_rf, OneLevelBankedRegisterFile):
            self._issue_path = Processor._try_issue_banked
            self._int_plan = int_rf.plan_operand_read
            self._fp_plan = fp_rf.plan_operand_read
            # Reusable per-class planning slots, filled in place by every
            # attempt instead of allocating lists.
            self._int_accesses: List[OperandAccess] = []
            self._fp_accesses: List[OperandAccess] = []
        elif isinstance(int_rf, RegisterFileCache):
            self._issue_path = Processor._try_issue_cache
            self._int_plan = int_rf.plan_read
            self._fp_plan = fp_rf.plan_read
            self._int_reads_fit = int_rf.read_port_check()
            self._fp_reads_fit = fp_rf.read_port_check()
        else:
            raise ConfigurationError(
                f"no issue path for register file model {type(int_rf).__name__}"
            )
        self._int_cycle_hook = int_rf.cycle_hook()
        self._fp_cycle_hook = fp_rf.cycle_hook()
        self._int_writeback = int_rf.writeback_hook()
        self._fp_writeback = fp_rf.writeback_hook()
        self._int_on_issue = int_rf.issue_hook()
        self._fp_on_issue = fp_rf.issue_hook()
        self._int_release = int_rf.release_hook()
        self._fp_release = fp_rf.release_hook()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def raise_commit_limit(self, max_instructions: int) -> None:
        """Let the next :meth:`run` continue up to ``max_instructions``.

        The livelock guard becomes the default one for the new limit, as
        if the config had asked for ``max_instructions`` and no explicit
        ``max_cycles``.
        """
        self.max_instructions = max_instructions
        self.max_cycles = self.config.with_overrides(
            max_instructions=max_instructions, max_cycles=None
        ).effective_max_cycles

    def run(self) -> SimulationStats:
        """Run the simulation until it stops and return the statistics.

        A run stops once the commit limit is reached or the stream is
        drained; after :meth:`raise_commit_limit`, calling it again
        resumes from the next cycle.
        """
        config = self.config
        stats = self.stats
        max_cycles = self.max_cycles
        max_instructions = self.max_instructions
        fetch_unit = self.fetch_unit
        decode_queue = self._decode_queue
        completions = self._completions
        # Collaborator dictionaries; both are mutated in place and never
        # rebound, so the emptiness checks below stay valid.
        rob_entries = self._rob_entries
        window_entries = self.window._entries
        int_begin = self._int_cycle_hook
        fp_begin = self._fp_cycle_hook
        fu_begin = self.fu_pool.begin_cycle
        commit_stage = self._commit_stage
        writeback_stage = self._writeback_stage
        issue_stage = self._issue_stage
        dispatch_stage = self._dispatch_stage
        fetch_stage = self._fetch_stage
        # Occupancy sampling is resolved once, outside the loop: when it
        # is disabled (the default) the per-cycle cost is literally zero.
        sample_occupancy = (
            self._sample_occupancy if config.collect_occupancy else None
        )

        # The termination conditions are evaluated exactly once per
        # simulated cycle, after that cycle's work: the final loop pass
        # can therefore not inflate ``stats.cycles``, which ends up being
        # exactly the number of cycles whose stages ran.
        cycle = self.cycle
        while True:
            if cycle > max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"({stats.committed_instructions} instructions committed); "
                    "likely a livelock in the pipeline model"
                )

            if int_begin is not None:
                int_begin(cycle)
            if fp_begin is not None:
                fp_begin(cycle)
            fu_begin(cycle)

            if rob_entries:
                commit_stage(cycle)
            if cycle in completions:
                writeback_stage(cycle)
            if window_entries:
                issue_stage(cycle)
            if decode_queue:
                dispatch_stage(cycle)
            if not fetch_unit.exhausted:
                fetch_stage(cycle)

            if sample_occupancy is not None:
                sample_occupancy(cycle)

            cycle += 1
            if stats.committed_instructions >= max_instructions:
                break
            if fetch_unit.exhausted and not decode_queue and not rob_entries:
                break

        self.cycle = stats.cycles = cycle
        self._finalize_statistics()
        return stats

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self, cycle: int) -> None:
        stats = self.stats
        observer = self.commit_observer
        max_instructions = self.max_instructions
        rob = self.rob
        rob_entries = self._rob_entries
        renamer = self.renamer
        int_free = renamer._int_free
        fp_free = renamer._fp_free
        scoreboard = self.scoreboard
        sb_states = self._sb_states
        lsq = self.lsq
        int_release = self._int_release
        fp_release = self._fp_release
        value_reads = stats.value_read_distribution
        committed = stats.committed_instructions
        for rob_entry in rob.committable(self.config.commit_width, cycle):
            if committed >= max_instructions:
                break
            renamed = rob_entry.renamed
            instruction = renamed.instruction
            # Inlined ``rob.commit``: the committable entries are the head
            # run of the ROB, popped here in program order.
            head_seq, _ = rob_entries.popitem(last=False)
            if head_seq != instruction.seq:
                raise SimulationError(
                    f"commit out of order: head is {head_seq}, got {instruction.seq}"
                )
            # Inlined ``renamer.commit``: release the previous mapping of
            # the committed destination.
            released = renamed.previous_dest
            if released is not None:
                is_int = released.reg_class is RegisterClass.INT
                (int_free if is_int else fp_free).release(released.index)
                state = sb_states.get(released.uid)
                if state is not None:
                    total_reads = (
                        state.reads_from_bypass
                        + state.reads_from_upper
                        + state.reads_from_lower
                    )
                    value_reads[total_reads] += 1
                    scoreboard.release(released)
                    release = int_release if is_int else fp_release
                    if release is not None:
                        release(released)
            op_class = instruction.op_class
            if op_class is OpClass.STORE:
                self.dcache.access(instruction.mem_address or 0, is_write=True)
                lsq.release(instruction.seq)
            elif op_class is OpClass.LOAD:
                lsq.release(instruction.seq)
            committed += 1
            if observer is not None:
                observer.on_commit(renamed, cycle)
        stats.committed_instructions = committed

    # ------------------------------------------------------------------
    # write-back / completion
    # ------------------------------------------------------------------

    def _writeback_stage(self, cycle: int) -> None:
        completions = self._completions.pop(cycle, None)
        if completions is None:
            return
        window = self.window
        rob_entries = self._rob_entries
        stats = self.stats
        int_writeback = self._int_writeback
        fp_writeback = self._fp_writeback
        for renamed, ex_end_cycle, fetched in completions:
            instruction = renamed.instruction
            dest = renamed.dest
            if dest is not None:
                state = renamed.dest_state
                if state is None:
                    raise SimulationError(f"no scoreboard state for {dest}")
                writeback = (int_writeback if dest.reg_class is RegisterClass.INT
                             else fp_writeback)
                state.rf_ready_cycle = (
                    cycle if writeback is None
                    else writeback(dest, state, cycle, window)
                )
                state.written_back = True
            # Inlined ``rob.mark_completed``.
            rob_entry = rob_entries.get(instruction.seq)
            if rob_entry is None:
                raise SimulationError(f"no ROB entry for seq {instruction.seq}")
            rob_entry.completed = True
            rob_entry.complete_cycle = cycle

            if instruction.is_branch and fetched is not None:
                self.fetch_unit.on_branch_writeback(
                    instruction, fetched, ex_end_cycle
                )
                if fetched.mispredicted:
                    stats.branch_mispredictions += 1

    # ------------------------------------------------------------------
    # issue (wakeup / select / operand read planning)
    # ------------------------------------------------------------------

    def _issue_stage(self, cycle: int) -> None:
        issue_width = self.config.issue_width
        try_issue = self._issue_path
        issued = 0
        for entry in self.window.schedulable(cycle):
            if try_issue(self, entry, cycle):
                issued += 1
                if issued >= issue_width:
                    break

    def _try_issue_single_banked(self, entry: IssueQueueEntry, cycle: int) -> bool:
        """Issue path of the monolithic file, planned from value states.

        No operand can miss, and each read is either bypassed or one read
        port of its class's file, so an attempt reduces to the timing test
        of every source plus two counts per class for the models.
        """
        renamed = entry.renamed
        instruction = renamed.instruction
        op_class = instruction.op_class

        if op_class is OpClass.LOAD and not self.lsq.load_may_issue(instruction.seq):
            self.window.defer(entry, cycle + 1)
            return False

        latest_end = cycle + self._bypass_reach
        int_file = int_bypass = fp_file = fp_bypass = 0
        plan = entry.operand_plan
        for _, state, is_int in plan:
            ex_end = state.ex_end_cycle
            if ex_end is None:
                self.window.defer(entry, cycle + 1)
                return False
            if ex_end > latest_end:
                # Retry when ``latest_end`` catches up; always > cycle.
                self.window.defer(entry, ex_end - self._bypass_reach)
                return False
            # From the file when the read, starting at issue, already sees
            # the written value (``BypassNetwork.served_by_bypass``).
            rf_ready = state.rf_ready_cycle
            if rf_ready is not None and rf_ready <= cycle:
                if is_int:
                    int_file += 1
                else:
                    fp_file += 1
            elif is_int:
                int_bypass += 1
            else:
                fp_bypass += 1

        stats = self.stats
        if not self.fu_pool.can_issue(op_class, cycle):
            stats.issue_stalls_fu += 1
            return False
        reads_fit = self._int_reads_fit
        if int_file and reads_fit is not None and not reads_fit(int_file):
            stats.issue_stalls_ports += 1
            return False
        reads_fit = self._fp_reads_fit
        if fp_file and reads_fit is not None and not reads_fit(fp_file):
            stats.issue_stalls_ports += 1
            return False

        if int_file or int_bypass:
            self._int_rf.record_reads(int_file, int_bypass)
        if fp_file or fp_bypass:
            self._fp_rf.record_reads(fp_file, fp_bypass)
        for _, state, _ in plan:
            rf_ready = state.rf_ready_cycle
            if rf_ready is not None and rf_ready <= cycle:
                state.reads_from_upper += 1
            else:
                state.consumed_via_bypass = True
                state.reads_from_bypass += 1
        stats.operands_from_file += int_file + fp_file
        stats.operands_from_bypass += int_bypass + fp_bypass
        self._do_issue(entry, cycle)
        return True

    def _try_issue_banked(self, entry: IssueQueueEntry, cycle: int) -> bool:
        """Issue path of the one-level banked file.

        Every file read names its bank, so each operand is planned into an
        :class:`OperandAccess` and the model arbitrates the banks' ports.
        """
        renamed = entry.renamed
        instruction = renamed.instruction
        op_class = instruction.op_class
        window = self.window

        if op_class is OpClass.LOAD and not self.lsq.load_may_issue(instruction.seq):
            window.defer(entry, cycle + 1)
            return False

        # Planning into the reusable per-class slot lists; the (register,
        # scoreboard state, class) triples were resolved at dispatch.
        int_plan = self._int_plan
        fp_plan = self._fp_plan
        int_accesses = self._int_accesses
        fp_accesses = self._fp_accesses
        int_accesses.clear()
        fp_accesses.clear()
        for register, state, is_int in entry.operand_plan:
            access = (int_plan if is_int else fp_plan)(register, state, cycle)
            if access.source is OperandSource.NOT_READY:
                retry = access.retry_cycle
                if retry is None or retry < cycle + 1:
                    retry = cycle + 1
                window.defer(entry, retry)
                return False
            access.state = state
            (int_accesses if is_int else fp_accesses).append(access)

        stats = self.stats
        if not self.fu_pool.can_issue(op_class, cycle):
            stats.issue_stalls_fu += 1
            return False
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        if int_accesses and not int_rf.can_claim_reads(int_accesses):
            stats.issue_stalls_ports += 1
            return False
        if fp_accesses and not fp_rf.can_claim_reads(fp_accesses):
            stats.issue_stalls_ports += 1
            return False

        for accesses, regfile in ((int_accesses, int_rf), (fp_accesses, fp_rf)):
            if not accesses:
                continue
            regfile.claim_reads(accesses)
            for access in accesses:
                state = access.state
                if access.source is OperandSource.BYPASS:
                    state.consumed_via_bypass = True
                    state.reads_from_bypass += 1
                    stats.operands_from_bypass += 1
                else:
                    state.reads_from_upper += 1
                    stats.operands_from_file += 1
        self._do_issue(entry, cycle)
        return True

    def _try_issue_cache(self, entry: IssueQueueEntry, cycle: int) -> bool:
        """Issue path of the register file cache.

        The model plans each operand without allocating
        (:meth:`RegisterFileCache.plan_read`); an operand found only in the
        lowest level starts a fill instead of an issue.
        """
        renamed = entry.renamed
        instruction = renamed.instruction
        op_class = instruction.op_class

        if op_class is OpClass.LOAD and not self.lsq.load_may_issue(instruction.seq):
            self.window.defer(entry, cycle + 1)
            return False

        int_plan = self._int_plan
        fp_plan = self._fp_plan
        plan = entry.operand_plan
        sources = []
        missing = None
        int_file = fp_file = 0
        for register, state, is_int in plan:
            source = (int_plan if is_int else fp_plan)(register, state, cycle)
            if source is _FILE:
                if is_int:
                    int_file += 1
                else:
                    fp_file += 1
            elif source is _MISS:
                if missing is None:
                    missing = []
                missing.append((register, state, is_int))
            elif source is not _BYPASS:
                # Not obtainable yet: ``source`` is the retry hint.
                self.window.defer(
                    entry, source if source is not None and source > cycle else cycle + 1
                )
                return False
            sources.append(source)

        if missing is not None:
            self._fill_upper_level(entry, missing, cycle)
            return False

        stats = self.stats
        if not self.fu_pool.can_issue(op_class, cycle):
            stats.issue_stalls_fu += 1
            return False
        reads_fit = self._int_reads_fit
        if int_file and reads_fit is not None and not reads_fit(int_file):
            stats.issue_stalls_ports += 1
            return False
        reads_fit = self._fp_reads_fit
        if fp_file and reads_fit is not None and not reads_fit(fp_file):
            stats.issue_stalls_ports += 1
            return False

        int_rf = self._int_rf
        fp_rf = self._fp_rf
        for (register, state, is_int), source in zip(plan, sources):
            from_upper = source is _FILE
            (int_rf if is_int else fp_rf).read(register, from_upper)
            if from_upper:
                state.reads_from_upper += 1
            else:
                state.consumed_via_bypass = True
                state.reads_from_bypass += 1
        if int_file:
            int_rf.claim_read_ports(int_file)
        if fp_file:
            fp_rf.claim_read_ports(fp_file)
        from_file = int_file + fp_file
        stats.operands_from_file += from_file
        stats.operands_from_bypass += len(plan) - from_file
        self._do_issue(entry, cycle)
        return True

    def _fill_upper_level(
        self, entry: IssueQueueEntry, missing: List[tuple], cycle: int
    ) -> None:
        """Fetch-on-demand: bring missing operands up over the buses.

        The operands of the oldest waiting instruction are pinned in the
        uppermost level until they are read, so that even a tiny upper bank
        cannot thrash the two operands of one instruction against each
        other and livelock the pipeline.
        """
        self.stats.issue_stalls_fill += 1
        int_rf = self._int_rf
        fp_rf = self._fp_rf
        is_oldest = self.window.oldest_seq() == entry.seq
        if is_oldest:
            # ``pin_operand`` keeps only resident or in-flight values: of
            # this instruction's operands, exactly its upper-level reads (a
            # bypassed value is not written back yet, a missing one is
            # neither resident nor in flight).
            for register, _, is_int in entry.operand_plan:
                (int_rf if is_int else fp_rf).pin_operand(register)
        latest_completion: Optional[int] = None
        for register, state, is_int in missing:
            completion = (int_rf if is_int else fp_rf).request_fill(
                register, state, cycle, pin=is_oldest
            )
            if completion is not None:
                latest_completion = max(latest_completion or 0, completion)
        if latest_completion is not None:
            self.window.defer(entry, latest_completion)
        else:
            self.window.defer(entry, cycle + 1)

    def _do_issue(self, entry: IssueQueueEntry, cycle: int) -> None:
        """Issue ``entry`` once its operand reads are accounted."""
        renamed = entry.renamed
        instruction = renamed.instruction
        op_class = instruction.op_class
        window = self.window

        # Inlined ``_execution_latency``: the common (non-memory) case is
        # a plain field read, and loads are the only class with real work.
        if op_class is OpClass.LOAD:
            address = instruction.mem_address or 0
            if self.lsq.forwarding_store(instruction.seq, address) is not None:
                latency = 2  # address generation + forward from the store queue
            else:
                latency = 1 + self.dcache.access(address).latency
        elif op_class is OpClass.STORE:
            latency = 1  # address generation; data is written at commit
        else:
            latency = instruction.latency or 1
        self.fu_pool.issue_unchecked(op_class, cycle, latency)

        ex_start = cycle + self.read_stages
        ex_end = ex_start + latency - 1
        seq = instruction.seq

        window.mark_issued(entry, cycle)
        # Inlined ``rob.mark_issued``.
        rob_entry = self._rob_entries.get(seq)
        if rob_entry is None:
            raise SimulationError(f"no ROB entry for seq {seq}")
        rob_entry.issue_cycle = cycle

        if ((op_class is OpClass.LOAD or op_class is OpClass.STORE)
                and instruction.mem_address is not None):
            self.lsq.set_address(seq, instruction.mem_address)

        dest = renamed.dest
        if dest is not None:
            state = renamed.dest_state
            if state is None:
                raise SimulationError(f"no scoreboard state for {dest}")
            state.ex_end_cycle = ex_end
            window.wakeup(dest, ex_end)
            on_issue = (self._int_on_issue if dest.reg_class is RegisterClass.INT
                        else self._fp_on_issue)
            if on_issue is not None:
                on_issue(entry, cycle, window, self.scoreboard)

        completion = (renamed, ex_end, renamed.fetched)
        bucket = self._completions.get(ex_end + 1)
        if bucket is None:
            self._completions[ex_end + 1] = [completion]
        else:
            bucket.append(completion)

    # ------------------------------------------------------------------
    # decode / rename / dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self, cycle: int) -> None:
        decode_queue = self._decode_queue
        stats = self.stats
        decode_width = self.config.decode_width
        rob = self.rob
        rob_entries = self._rob_entries
        rob_capacity = rob.capacity
        window = self.window
        window_entries = window._entries
        window_capacity = window.capacity
        lsq = self.lsq
        renamer = self.renamer
        scoreboard = self.scoreboard
        # Direct free-list views for the inlined ``renamer.can_rename``.
        int_free = renamer._int_free._free
        fp_free = renamer._fp_free._free
        dispatched = 0
        while decode_queue and dispatched < decode_width:
            fetched = decode_queue[0]
            if fetched.fetch_cycle >= cycle:
                break  # still in the decode stage
            instruction = fetched.instruction
            op_class = instruction.op_class
            is_memory = op_class is OpClass.LOAD or op_class is OpClass.STORE
            if len(rob_entries) >= rob_capacity:
                stats.dispatch_stalls_rob += 1
                break
            if len(window_entries) >= window_capacity:
                stats.dispatch_stalls_window += 1
                break
            if is_memory and lsq.full:
                stats.dispatch_stalls_lsq += 1
                break
            # Inlined ``renamer.can_rename``.
            dest = instruction.dest
            if dest is not None and not (
                int_free if dest.reg_class is RegisterClass.INT else fp_free
            ):
                stats.dispatch_stalls_registers += 1
                break

            decode_queue.popleft()
            renamed = renamer.rename(instruction)
            renamed.fetched = fetched
            if renamed.dest is not None:
                renamed.dest_state = scoreboard.allocate(renamed.dest, instruction.seq)
            # Inlined ``rob.dispatch``: capacity and program order were
            # already checked by this stage (the stream's seq is
            # monotonic), so insert the entry directly.
            rob_entries[instruction.seq] = ROBEntry(
                renamed=renamed, dispatch_cycle=cycle
            )
            window.dispatch(renamed, cycle)
            if is_memory:
                is_store = op_class is OpClass.STORE
                lsq.insert(instruction.seq, is_store)
                if is_store and instruction.mem_address is not None:
                    # Store addresses are produced by the address-generation
                    # part of the store, which does not wait for the store
                    # data; the stream already carries the effective
                    # address, so younger loads are only delayed by real
                    # same-address conflicts (store→load forwarding).
                    lsq.set_address(instruction.seq, instruction.mem_address)
            dispatched += 1

        if dispatched:
            # Occupancies and registers-in-use only grow at dispatch, so
            # the maxima are attained right here; cycles without a
            # dispatch cannot set a new maximum.
            occupancy = window.occupancy()
            if occupancy > stats.max_window_occupancy:
                stats.max_window_occupancy = occupancy
            rob_occupancy = rob.occupancy()
            if rob_occupancy > stats.max_rob_occupancy:
                stats.max_rob_occupancy = rob_occupancy
            int_in_use = renamer.in_use_registers(RegisterClass.INT)
            if int_in_use > stats.max_int_registers_in_use:
                stats.max_int_registers_in_use = int_in_use
            fp_in_use = renamer.in_use_registers(RegisterClass.FP)
            if fp_in_use > stats.max_fp_registers_in_use:
                stats.max_fp_registers_in_use = fp_in_use

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch_stage(self, cycle: int) -> None:
        decode_queue = self._decode_queue
        if len(decode_queue) >= self.config.fetch_buffer_size:
            return
        fetch_unit = self.fetch_unit
        if fetch_unit.exhausted:
            return
        fetch_unit.fetch_into(decode_queue, self.stats, cycle)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _sample_occupancy(self, cycle: int) -> None:
        needed: set[PhysicalRegister] = set()
        ready: set[PhysicalRegister] = set()
        sb_states = self._sb_states
        for entry in self.window._entries.values():
            produced_sources = []
            all_produced = True
            for register in entry.renamed.sources:
                state = sb_states.get(register.uid)
                if state is None:
                    raise SimulationError(f"no scoreboard state for {register}")
                if state.ex_end_cycle is not None and state.ex_end_cycle <= cycle:
                    produced_sources.append(register)
                else:
                    all_produced = False
            needed.update(produced_sources)
            if all_produced and produced_sources:
                ready.update(produced_sources)
        self.stats.record_occupancy(OccupancySample(len(needed), len(ready)))

    def _finalize_statistics(self) -> None:
        self.stats.icache_hits = self.fetch_unit.icache_hits
        self.stats.icache_misses = self.fetch_unit.icache_misses
        self.stats.dcache_hits = self.dcache.hits
        self.stats.dcache_misses = self.dcache.misses
        self.stats.loads_forwarded = self.lsq.forwarded_loads
        regfile_stats: Dict[str, int] = {}
        for reg_class, regfile in self._regfiles.items():
            for key, value in regfile.statistics().items():
                regfile_stats[f"{reg_class.value}_{key}"] = value
        self.stats.regfile_statistics = regfile_stats
        observer = self.commit_observer
        if observer is not None:
            self.stats.commit_checksum = observer.final_digest()


def simulate(
    workload: Optional[Iterable[DynamicInstruction]],
    regfile_factory: Callable[[], RegisterFileModel],
    config: Optional[ProcessorConfig] = None,
    benchmark_name: str = "workload",
    commit_observer=None,
    frontend=None,
) -> SimulationStats:
    """Convenience wrapper: build a :class:`Processor`, run it, return stats."""
    processor = Processor(workload, regfile_factory, config, benchmark_name,
                          commit_observer=commit_observer, frontend=frontend)
    return processor.run()

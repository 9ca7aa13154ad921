"""Conventional single-banked (monolithic) register file.

This models the paper's baselines:

* 1-cycle access, one level of bypass (the ideal, non-pipelined file),
* 2-cycle access, two levels of bypass (pipelined file with full bypass),
* 2-cycle access, one level of bypass (pipelined file with the same
  bypass complexity as the register file cache).

Reads and writes can be limited to a configurable number of ports, which
is what the area/performance trade-off experiments (Figure 8, Table 2,
Figure 9) sweep.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.execute.scoreboard import ValueState
from repro.regfile.base import (
    OperandAccess,
    OperandSource,
    RegisterFileModel,
    UNLIMITED,
)
from repro.regfile.ports import PortSet, WriteScheduler
from repro.rename.renamer import PhysicalRegister


class SingleBankedRegisterFile(RegisterFileModel):
    """A monolithic register file with N-cycle access and B bypass levels."""

    def __init__(
        self,
        latency: int = 1,
        bypass_levels: Optional[int] = None,
        read_ports: Optional[int] = UNLIMITED,
        write_ports: Optional[int] = UNLIMITED,
        name: Optional[str] = None,
    ) -> None:
        if latency <= 0:
            raise ConfigurationError("register file latency must be positive")
        resolved_bypass = latency if bypass_levels is None else bypass_levels
        if not 1 <= resolved_bypass <= latency:
            raise ConfigurationError(
                "bypass_levels must be between 1 and the register file latency"
            )
        self.read_stages = latency
        self.bypass_levels = resolved_bypass
        self.read_ports = PortSet(read_ports, kind="read")
        self.writes = WriteScheduler(write_ports, kind="write")
        self.name = name or (
            f"single-banked {latency}-cycle, {resolved_bypass}-bypass"
        )
        # statistics
        self.reads_from_bypass = 0
        self.reads_from_file = 0
        self.read_port_stalls = 0

    # ------------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        # Direct store instead of ``read_ports.begin_cycle()``: this runs
        # every simulated cycle and the method call is pure overhead.
        self.read_ports._used = 0
        if not cycle & 1023:
            self.writes.forget_before(cycle)

    def cycle_hook(self) -> Optional[Callable[[int], None]]:
        # Unlimited ports keep no per-cycle or per-write state.
        if self.read_ports.unlimited and self.writes.unlimited:
            return None
        return self.begin_cycle

    def writeback_hook(self):
        return None if self.writes.unlimited else self.writeback

    # ------------------------------------------------------------------
    # reads (issue side)
    #
    # The pipeline's single-banked issue path applies the timing rule of
    # :meth:`plan_operand_read` to a whole instruction straight from the
    # operands' value states, and talks to the model only in counts of
    # file and bypass reads (:meth:`read_port_check`, :meth:`record_reads`).
    # ------------------------------------------------------------------

    def plan_operand_read(
        self, register: PhysicalRegister, state: ValueState, issue_cycle: int
    ) -> OperandAccess:
        ex_start = issue_cycle + self.read_stages
        if state.ex_end_cycle is None:
            return OperandAccess(register, OperandSource.NOT_READY)
        earliest_ex = state.ex_end_cycle + 1 + (self.read_stages - self.bypass_levels)
        if ex_start < earliest_ex:
            return OperandAccess(
                register,
                OperandSource.NOT_READY,
                retry_cycle=earliest_ex - self.read_stages,
            )
        # The operand is obtainable.  It comes from the register file when
        # the read (starting at issue) can already see the written value;
        # otherwise it rides the bypass network.
        if state.rf_ready_cycle is not None and issue_cycle >= state.rf_ready_cycle:
            return OperandAccess(register, OperandSource.FILE)
        return OperandAccess(register, OperandSource.BYPASS)

    def read_port_check(self) -> Optional[Callable[[int], bool]]:
        """The issue-time port check, or ``None`` when reads are unlimited."""
        return None if self.read_ports.unlimited else self.reads_fit

    def reads_fit(self, needed: int) -> bool:
        """Whether ``needed`` file reads fit in this cycle's read ports
        (a refusal counts as a read-port stall)."""
        if self.read_ports.available_capped(needed):
            return True
        self.read_port_stalls += 1
        return False

    def record_reads(self, file_reads: int, bypass_reads: int) -> None:
        """Account an issued instruction's reads, claiming its file ports."""
        if file_reads and self.read_ports.count is not None:
            self.read_ports.claim_capped(file_reads)
        self.reads_from_file += file_reads
        self.reads_from_bypass += bypass_reads

    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        needed = 0
        for access in accesses:
            if access.source is OperandSource.FILE:
                needed += 1
        return needed == 0 or self.reads_fit(needed)

    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        needed = 0
        bypassed = 0
        for access in accesses:
            source = access.source
            if source is OperandSource.FILE:
                needed += 1
            elif source is OperandSource.BYPASS:
                bypassed += 1
        self.record_reads(needed, bypassed)

    # ------------------------------------------------------------------

    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window,
    ) -> int:
        return self.writes.schedule(cycle)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        reads = "inf" if self.read_ports.unlimited else str(self.read_ports.count)
        writes = "inf" if self.writes.unlimited else str(self.writes.ports_per_cycle)
        return f"{self.name} ({reads}R/{writes}W)"

    def statistics(self) -> dict:
        return {
            "reads_from_bypass": self.reads_from_bypass,
            "reads_from_file": self.reads_from_file,
            "read_port_stalls": self.read_port_stalls,
            "write_delays": self.writes.delayed_writes,
        }

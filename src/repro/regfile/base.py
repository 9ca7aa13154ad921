"""Common interface of all register file architectures.

The pipeline model interacts with a register file exclusively through
:class:`RegisterFileModel`, and it binds what it needs once, when the
processor is built, rather than dispatching on every operand:

* at **select/issue** time a single-banked file is planned straight from
  the operands' :class:`~repro.execute.scoreboard.ValueState` timing; the
  model only answers whether its read ports fit the file reads
  (:meth:`~repro.regfile.monolithic.SingleBankedRegisterFile.read_port_check`)
  and records them.  A banked file plans each operand into an
  :class:`OperandAccess` naming its bank and checks and claims per-bank
  ports; the register file cache plans each operand without allocating
  (:meth:`~repro.regfile.cache.RegisterFileCache.plan_read`), since a
  read may miss in the upper level.  Every model also answers the
  per-operand queries :meth:`RegisterFileModel.plan_operand_read`,
  :meth:`~RegisterFileModel.can_claim_reads` and
  :meth:`~RegisterFileModel.claim_reads`;
* when an operand is *missing* from the upper level of a register file
  cache the pipeline asks the model to start a **fill** over one of the
  inter-level buses;
* at **write-back** time it hands the produced value to the model, which
  arbitrates write ports, applies the caching policy and reports when the
  value becomes readable from the file;
* the per-cycle, write-back, issue and release hooks are bound once from
  :meth:`~RegisterFileModel.cycle_hook`,
  :meth:`~RegisterFileModel.writeback_hook`,
  :meth:`~RegisterFileModel.issue_hook` and
  :meth:`~RegisterFileModel.release_hook`; ``None`` means the
  organisation has nothing to do there and the pipeline skips the call.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.execute.scoreboard import ValueState
from repro.rename.renamer import PhysicalRegister

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.execute.issue_queue import IssueQueue

#: Sentinel meaning "an unlimited number of ports/buses".
UNLIMITED: Optional[int] = None


class OperandSource(enum.Enum):
    """How a source operand would be obtained at issue time."""

    #: The value is caught on the bypass network — no register file port.
    BYPASS = "bypass"
    #: The value is read from the register file (uppermost bank); needs a
    #: read port.
    FILE = "file"
    #: The value exists only in the lower bank of a register file cache
    #: and must be brought up over a bus before the instruction can issue.
    MISS = "miss"
    #: The value is not available yet (producer still executing, or still
    #: in flight to the lower bank).
    NOT_READY = "not_ready"


@dataclass(slots=True)
class OperandAccess:
    """The plan for obtaining one source operand."""

    register: PhysicalRegister
    source: OperandSource
    #: For FILE accesses of multi-banked organisations: which bank is read.
    bank: int = 0
    #: Earliest cycle at which re-planning could succeed (hint only).
    retry_cycle: Optional[int] = None
    #: Scoreboard state of the register, attached by the pipeline while
    #: planning so the issue bookkeeping needs no second scoreboard lookup.
    state: Optional[ValueState] = None

    @property
    def issuable(self) -> bool:
        """Whether the operand can be delivered for an issue this cycle."""
        return self.source in (OperandSource.BYPASS, OperandSource.FILE)


class RegisterFileModel(ABC):
    """Abstract register file architecture."""

    #: Cycles between issue and the start of execution (operand read).
    read_stages: int = 1
    #: Number of bypass levels implemented.
    bypass_levels: int = 1
    #: Whether this architecture's policies query the issue window's
    #: per-register consumer index (``waiting_consumers_of``).  Single
    #: level organisations never do, so the window skips maintaining it.
    needs_consumer_index: bool = False
    #: Human-readable architecture name used in reports.
    name: str = "register-file"

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------

    @abstractmethod
    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle port counters and complete pending transfers."""

    # ------------------------------------------------------------------
    # reads (issue side)
    # ------------------------------------------------------------------

    @abstractmethod
    def plan_operand_read(
        self, register: PhysicalRegister, state: ValueState, issue_cycle: int
    ) -> OperandAccess:
        """Plan how ``register`` would be obtained by an instruction issued
        at ``issue_cycle`` (executing ``read_stages`` cycles later)."""

    @abstractmethod
    def can_claim_reads(self, accesses: Sequence[OperandAccess]) -> bool:
        """Whether the FILE accesses in ``accesses`` fit in this cycle's
        remaining read-port budget."""

    @abstractmethod
    def claim_reads(self, accesses: Sequence[OperandAccess]) -> None:
        """Consume read ports for the FILE accesses in ``accesses``."""

    # ------------------------------------------------------------------
    # writes (write-back side)
    # ------------------------------------------------------------------

    @abstractmethod
    def writeback(
        self,
        register: PhysicalRegister,
        state: ValueState,
        cycle: int,
        window: "IssueQueue",
    ) -> int:
        """Write the produced value into the register file.

        Returns the cycle from which the value is readable from the file
        (the lowest bank for a register file cache).
        """

    # ------------------------------------------------------------------
    # lifetime management
    # ------------------------------------------------------------------

    def release(self, register: PhysicalRegister) -> None:
        """The physical register was returned to the free list."""

    # ------------------------------------------------------------------
    # hooks bound once by the pipeline (None: nothing to do)
    # ------------------------------------------------------------------

    def cycle_hook(self) -> Optional[Callable[[int], None]]:
        """The callback run at the start of every cycle."""
        return self.begin_cycle

    def writeback_hook(self) -> Optional[Callable[..., int]]:
        """The write-back callback; ``None`` means a result is readable
        from the file in the cycle it is written (unlimited write ports)."""
        return self.writeback

    def issue_hook(self) -> Optional[Callable[..., None]]:
        """The callback run when a producer issues (prefetching)."""
        return None

    def release_hook(self) -> Optional[Callable[[PhysicalRegister], None]]:
        """The callback run when a physical register is freed."""
        return None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return self.name

    def statistics(self) -> dict:
        """Architecture-specific counters for reports (may be empty)."""
        return {}

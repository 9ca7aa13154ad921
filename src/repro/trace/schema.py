"""Decoded-trace schema: identity keys and compact serialization.

A decoded trace captures everything the pipeline consumes from the
frontend:

* the **instruction stream** — the materialized
  :class:`~repro.isa.instruction.DynamicInstruction` list, and
* the **fetch events** — one entry per delivering ``fetch()`` call of
  the recording run: how many instructions the group carried, the
  fetch-unit stall it left behind (I-cache refill, BTB-miss bubble),
  the I-cache hit/miss deltas, and whether the group ended blocked on a
  mispredicted branch or discovered stream exhaustion.

Fetch-group composition never reads the cycle counter, so the events
are a pure function of (workload, frontend configuration); the trace
key hashes exactly those two things.  Backend parameters (register
budgets, window sizes, regfile architecture) deliberately do **not**
enter the key — that is what lets one trace drive a whole sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.canonical import canonical_json
from repro.errors import SimulationError
from repro.isa.instruction import (
    FP_LOGICAL_REGISTERS,
    INT_LOGICAL_REGISTERS,
    DynamicInstruction,
    LogicalRegister,
    RegisterClass,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import ProcessorConfig

#: Bump whenever the payload layout changes; mismatching stored traces
#: are treated as cache misses, never as errors.
TRACE_SCHEMA_VERSION = 1

#: Fetch-event flag bits.
ENDS_BLOCKED = 1  #: group ends with a mispredicted branch; fetch blocks.
EXHAUSTS = 2  #: the stream ran out during (or right before) this call.

#: One fetch event: (count, post_stall, icache_hits, icache_misses, flags).
FetchEvent = Tuple[int, int, int, int, int]

_OP_CLASSES: Tuple[OpClass, ...] = tuple(OpClass)
_OP_INDEX: Dict[OpClass, int] = {op: i for i, op in enumerate(_OP_CLASSES)}


def frontend_fingerprint(config: ProcessorConfig) -> dict:
    """The frontend-relevant subset of a :class:`ProcessorConfig`.

    Everything that shapes fetch-group composition or frontend outcomes:
    fetch width (groups end at width), the I-cache geometry (misses end
    groups and stall fetch) and the predictor/BTB sizes (direction and
    target outcomes).  Backend fields are excluded on purpose — replay
    fidelity across backends is what ``tests/test_trace_replay.py``
    locks down.
    """
    return {
        "fetch_width": config.fetch_width,
        "icache": dataclasses.asdict(config.icache),
        "branch_predictor_entries": config.branch_predictor_entries,
        "btb_entries": config.btb_entries,
    }


def trace_key(workload_id: dict, config: ProcessorConfig) -> str:
    """Content hash identifying one decoded trace.

    ``workload_id`` pins the instruction stream (e.g. ``{"kind":
    "synthetic-profile", "benchmark": "gcc", "instructions": 6000}``);
    the frontend fingerprint pins how it is fetched.
    """
    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "workload": dict(workload_id),
        "frontend": frontend_fingerprint(config),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# compact instruction encoding
# ----------------------------------------------------------------------

def _encode_register(register: Optional[LogicalRegister]) -> int:
    if register is None:
        return -1
    return (register.index << 1) | (register.reg_class is RegisterClass.FP)


def _decode_register(code: int) -> Optional[LogicalRegister]:
    if code < 0:
        return None
    pool = FP_LOGICAL_REGISTERS if code & 1 else INT_LOGICAL_REGISTERS
    return pool[code >> 1]


def encode_instruction(inst: DynamicInstruction) -> list:
    """One JSON-friendly row per dynamic instruction."""
    flags = (1 if inst.is_branch else 0) | (2 if inst.branch_taken else 0)
    return [
        inst.seq,
        _OP_INDEX[inst.op_class],
        _encode_register(inst.dest),
        [_encode_register(source) for source in inst.sources],
        inst.latency,
        inst.pc,
        flags,
        inst.branch_target,
        inst.mem_address,
        inst.mnemonic,
    ]


def decode_instruction(row: Sequence) -> DynamicInstruction:
    seq, op, dest, sources, latency, pc, flags, target, mem, mnemonic = row
    return DynamicInstruction(
        seq=seq,
        op_class=_OP_CLASSES[op],
        dest=_decode_register(dest),
        sources=tuple(_decode_register(code) for code in sources),
        latency=latency,
        pc=pc,
        is_branch=bool(flags & 1),
        branch_taken=bool(flags & 2),
        branch_target=target,
        mem_address=mem,
        mnemonic=mnemonic,
    )


# ----------------------------------------------------------------------
# the trace object
# ----------------------------------------------------------------------

@dataclass
class DecodedTrace:
    """A recorded decoded-instruction / fetch-event stream.

    One trace drives any number of sequential replays in a process; the
    prebuilt fetch groups are shared between replayers (their
    ``fetch_cycle`` fields are rewritten per run), so two replays of the
    same trace must not run concurrently in one process — worker
    processes are the unit of parallelism.
    """

    name: str
    key: str
    workload: dict
    frontend: dict
    instructions: List[DynamicInstruction]
    events: List[FetchEvent]
    #: Lazily-built per-event (group, branch_count) shared by replayers.
    _groups: Optional[list] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def complete(self) -> bool:
        """Whether the trace covers its whole workload stream.

        A recording bounded by a reach keeps only the prefix its replays
        can fetch; the ``instructions`` field of the workload identity
        is the length of the stream it was cut from.  A whole recording
        may cover more than that field (a caller recording a stream with
        slack past its declared budget), so coverage is compared with
        ``>=``.
        """
        return len(self.instructions) >= self.workload.get("instructions", 0)

    def serves(self, reach: int) -> bool:
        """Whether every replay fetching at most ``reach`` instructions
        stays inside this trace.

        A prefix ends with the event delivering the first instruction
        past the reach it was recorded for, so it serves any reach below
        its length; a complete trace serves every reach.
        """
        return self.complete or len(self.instructions) > reach

    def replay_groups(self) -> list:
        """Per-event replay tuples ``(count, post_stall, hits, misses,
        flags, fetched_group, branch_count)``, built once per process."""
        if self._groups is None:
            from repro.frontend.fetch import FetchedInstruction

            groups = []
            instructions = self.instructions
            position = 0
            for count, post_stall, hits, misses, flags in self.events:
                group = []
                branches = 0
                for inst in instructions[position:position + count]:
                    group.append(FetchedInstruction(instruction=inst, fetch_cycle=0))
                    if inst.is_branch:
                        branches += 1
                position += count
                if flags & ENDS_BLOCKED:
                    if not group or not group[-1].instruction.is_branch:
                        raise SimulationError(
                            f"corrupt trace {self.name!r}: blocked fetch event "
                            "does not end with a branch"
                        )
                    group[-1].mispredicted = True
                groups.append(
                    (count, post_stall, hits, misses, flags, group, branches)
                )
            if position != len(instructions):
                raise SimulationError(
                    f"corrupt trace {self.name!r}: events cover {position} of "
                    f"{len(instructions)} instructions"
                )
            self._groups = groups
        return self._groups

    def replayer(self):
        """A fresh frontend-source for one pipeline run over this trace."""
        from repro.trace.replayer import TraceReplayer

        return TraceReplayer(self)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-serializable payload (inverse of :meth:`from_payload`)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "key": self.key,
            "workload": self.workload,
            "frontend": self.frontend,
            "instructions": [encode_instruction(i) for i in self.instructions],
            "events": [list(event) for event in self.events],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DecodedTrace":
        """Rebuild a trace from :meth:`to_payload` output.

        Raises
        ------
        SimulationError
            On schema mismatch or a structurally invalid payload.
        """
        if not isinstance(payload, dict) or payload.get("schema") != TRACE_SCHEMA_VERSION:
            raise SimulationError(
                f"trace payload schema {payload.get('schema') if isinstance(payload, dict) else payload!r} "
                f"!= {TRACE_SCHEMA_VERSION}"
            )
        try:
            instructions = [decode_instruction(row) for row in payload["instructions"]]
            events = [tuple(event) for event in payload["events"]]
            trace = cls(
                name=payload["name"],
                key=payload["key"],
                workload=dict(payload["workload"]),
                frontend=dict(payload["frontend"]),
                instructions=instructions,
                events=events,
            )
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise SimulationError(f"malformed trace payload: {error}") from error
        if sum(event[0] for event in events) != len(instructions):
            raise SimulationError(
                "malformed trace payload: event instruction counts do not "
                "cover the stream"
            )
        return trace

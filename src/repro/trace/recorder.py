"""Recording the frontend of one pipeline run.

The recorder runs one pipeline simulation with a
:class:`RecordingFetchUnit` in place of the plain fetch unit.  Every
branch resolves and trains the predictor exactly as a live run would, so
the recorded events are valid for any replay that fetches no further
than the recording did (a simulation with a higher commit limit is
cycle-identical to one with a lower limit until the lower limit stops).

The backend of that run does not change the events.  The sweep engine
records on the backend of the trace group's first point and keeps that
run's statistics as the point's result: the point runs unchanged until
it stops, then the same processor continues under a raised commit limit
until the trace is long enough for the whole group.  Callers without a
point (sampled-only groups, :func:`record_trace`) record on the cheapest
backend, a 1-cycle monolithic register file.

A recording with a ``reach`` pulls the stream only as fetch consumes it
and stops right after the fetch event that delivers instruction
``reach + 1``: the prefix it keeps holds every event a replay fetching
at most ``reach`` instructions can consume, including the empty
I-cache-miss events that precede the next delivery.  Without a
``reach`` the commit limit is the stream length and the whole stream is
recorded.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Optional

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit
from repro.frontend.gshare import GSharePredictor
from repro.isa.instruction import DynamicInstruction
from repro.memsys.cache import CacheModel
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import Processor
from repro.regfile.monolithic import SingleBankedRegisterFile
from repro.trace.schema import (
    ENDS_BLOCKED,
    EXHAUSTS,
    DecodedTrace,
    FetchEvent,
    frontend_fingerprint,
    trace_key,
)


def _canonical_regfile() -> SingleBankedRegisterFile:
    """The recording backend when no point's backend is given: the
    cheapest to simulate, and timing-irrelevant like any other.

    Frontend outcomes are backend-independent in this simulator: fetch
    blocks on every mispredicted branch until it resolves (so the
    history repair always precedes the next prediction) and group
    composition never reads the cycle counter — the backend only
    determines how fast the recording run itself finishes, which is why
    a recording on a point's own backend yields the same trace.  The
    one theoretical exception is gshare counter-*training* order
    between in-flight branches (updates land at backend-dependent
    write-back times), which could in principle flip an aliased
    prediction near a saturation boundary.  Empirically it never does
    across the full architecture matrix and severe backend perturbations —
    ``tests/test_trace_replay.py`` and
    ``tests/test_validate_differential.py`` re-verify the bit-identity
    contract (replay == live, and a harvested recording on every matrix
    backend == this one) on every tier-1 run.
    """
    return SingleBankedRegisterFile(latency=1, bypass_levels=1)


class _ReachRecorded(Exception):
    """Ends a recording run once its reach is covered (recorder-private)."""


class RecordingFetchUnit(FetchUnit):
    """A fetch unit that logs one event per delivering ``fetch()`` call.

    Calls that return empty-handed *without* touching any state (blocked
    on a mispredicted branch, inside a stall window) are not events: the
    replayer reproduces those from its own stall/block bookkeeping.
    Empty calls that consumed an I-cache miss or discovered stream
    exhaustion are events — they change observable state.

    The delivered instructions are kept alongside the events; with a
    ``reach``, the call that delivers instruction ``reach + 1`` ends the
    run by raising :class:`_ReachRecorded` after logging its event.
    """

    def __init__(self, *args, reach: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events: list[FetchEvent] = []
        self.instructions: list[DynamicInstruction] = []
        self.reach = reach
        self._recorded_exhaustion = False

    def fetch(self, cycle: int):
        icache = self.icache
        hits_before = icache.hits
        misses_before = icache.misses
        group = super().fetch(cycle)
        hits = icache.hits - hits_before
        misses = icache.misses - misses_before
        exhausts = self.exhausted and not self._recorded_exhaustion
        if not group and not hits and not misses and not exhausts:
            return group  # blocked / stalled no-op; not an event
        flags = 0
        if self._blocked_on_seq is not None and group:
            # ``fetch`` only delivers while unblocked, so a blocked state
            # after the call means this very group ended on a
            # mispredicted branch (always its last instruction).
            flags |= ENDS_BLOCKED
        if exhausts:
            flags |= EXHAUSTS
            self._recorded_exhaustion = True
        post_stall = self._stalled_until - cycle
        if post_stall < 0:
            post_stall = 0
        self.events.append((len(group), post_stall, hits, misses, flags))
        if group:
            delivered = self.instructions
            delivered.extend([fetched.instruction for fetched in group])
            if self.reach is not None and len(delivered) > self.reach:
                raise _ReachRecorded
        return group


def record_trace_with_stats(
    name: str,
    instructions: Iterable[DynamicInstruction],
    config: ProcessorConfig,
    workload_id: dict,
    factory: Optional[Callable] = None,
    reach: Optional[int] = None,
):
    """Like :func:`record_trace`, also harvesting a point's live result.

    The recording's commit limit is the stream length without ``reach``
    and ``reach + 1`` with one; with a ``reach`` below the stream length
    the stream is pulled only as fetch consumes it and the run stops
    right after the fetch event that delivers instruction ``reach + 1``.
    The trace keeps exactly the events so far and the instructions they
    delivered.

    Without ``factory`` the recording runs the canonical backend
    (:func:`_canonical_regfile`) at the recording's commit limit, with
    neither occupancy collection nor an explicit cycle cap, and the
    returned stats are ``None``.  With ``factory`` it first runs the
    point ``(factory, config)`` unchanged and keeps a copy of its
    statistics the cycle that run stops; it then raises the commit limit
    to the recording's and continues the same processor until the
    recording stops.  Frontend outcomes do not depend on the backend, so
    the trace equals the canonical one, and the returned stats *are* the
    point's live result — the scheduler harvests them instead of
    replaying the point.  They are ``None`` if the recording stopped
    before the point's run did (a ``reach`` below the point's own).
    """
    if reach is None:
        stream = list(instructions)
        commit_limit = len(stream)
    else:
        stream = instructions
        # Committing ``reach + 1`` instructions needs them fetched, so the
        # commit limit can never end the run before the reach stop does.
        commit_limit = reach + 1
    if factory is None:
        run_factory = _canonical_regfile
        run_config = config.with_overrides(
            max_instructions=commit_limit,
            max_cycles=None,
            collect_occupancy=False,
        )
    else:
        run_factory, run_config = factory, config
    unit = RecordingFetchUnit(
        iter(stream),
        CacheModel(config.icache, name="icache"),
        GSharePredictor(config.branch_predictor_entries),
        BranchTargetBuffer(config.btb_entries),
        width=config.fetch_width,
        reach=reach,
    )
    processor = Processor(None, run_factory, run_config, benchmark_name=name,
                          frontend=unit)
    stats = None
    try:
        stats = processor.run()
        if stats.committed_instructions == run_config.max_instructions < commit_limit:
            # The point stopped on its own commit limit: keep its result
            # and run on until the recording is as long as the group needs.
            stats = copy.deepcopy(stats)
            processor.raise_commit_limit(commit_limit)
            processor.run()
    except _ReachRecorded:
        pass
    trace = DecodedTrace(
        name=name,
        key=trace_key(workload_id, config),
        workload=dict(workload_id),
        frontend=frontend_fingerprint(config),
        instructions=unit.instructions,
        events=unit.events,
    )
    return trace, (None if factory is None else stats)


def record_trace(
    name: str,
    instructions: Iterable[DynamicInstruction],
    config: ProcessorConfig,
    workload_id: dict,
) -> DecodedTrace:
    """Run workload + frontend once and materialize the decoded trace.

    ``config`` supplies the frontend-relevant parameters; its backend
    fields are not used.  The returned trace replays bit-identically for
    any backend whose config shares
    :func:`~repro.trace.schema.frontend_fingerprint` with ``config`` and
    whose commit budget does not exceed the stream length.
    """
    return record_trace_with_stats(name, instructions, config, workload_id)[0]

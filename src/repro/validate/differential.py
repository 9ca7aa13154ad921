"""Differential replay of one trace across every register-file architecture.

The paper's central claim is that banked and cached register files are
*architecturally transparent*: they change timing, never results.  This
module is the end-to-end check of that claim.  One materialized
:class:`~repro.workloads.trace.Trace` is replayed through every
architecture of :func:`validation_matrix` with a commit-stream observer
attached; the observed commit streams are compared — commit count,
rolling commit-order checksum, committed architectural register state —
against the pipeline-independent
:class:`~repro.validate.oracle.ArchitecturalOracle`.  Any disagreement
becomes a :class:`~repro.validate.report.Divergence` carrying the first
divergent commit index and the two canonical records, which together
with the scenario seed is a minimized repro.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import SimulationError, ValidationError
from repro.experiments.common import (
    OneLevelBankedFactory,
    RegfileFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig
from repro.trace import record_trace, replay_simulate
from repro.validate.faults import FaultInjectingObserver, InjectedFault
from repro.validate.observer import DEFAULT_CHECKPOINT_INTERVAL, CommitObserver
from repro.validate.oracle import OracleResult, run_oracle
from repro.validate.report import (
    ArchitectureOutcome,
    Divergence,
    ScenarioValidation,
)
from repro.workloads.trace import Trace


def validation_matrix() -> Dict[str, RegfileFactory]:
    """The full architecture matrix every differential run covers.

    Spans all three families of the paper: the monolithic single-banked
    file (all three timings), the one-level interleaved-bank
    organisation (two bank counts), and the two-level register file
    cache across its caching policies, both fetch policies and a
    constrained-port point.
    """
    return {
        "monolithic-1c": SingleBankedFactory(
            latency=1, bypass_levels=1, name="1-cycle single-banked"
        ),
        "monolithic-2c-full-bypass": SingleBankedFactory(
            latency=2, bypass_levels=2, name="2-cycle single-banked, full bypass"
        ),
        "monolithic-2c-1-bypass": SingleBankedFactory(
            latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"
        ),
        "banked-2x2r2w": OneLevelBankedFactory(
            num_banks=2, read_ports_per_bank=2, write_ports_per_bank=2
        ),
        "banked-4x2r2w": OneLevelBankedFactory(
            num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2
        ),
        "rfc-non-bypass": RegisterFileCacheFactory(
            caching="non-bypass", fetch="prefetch-first-pair"
        ),
        "rfc-ready": RegisterFileCacheFactory(
            caching="ready", fetch="prefetch-first-pair"
        ),
        "rfc-always-demand": RegisterFileCacheFactory(
            caching="always", fetch="fetch-on-demand"
        ),
        "rfc-never-demand": RegisterFileCacheFactory(
            caching="never", fetch="fetch-on-demand"
        ),
        "rfc-non-bypass-ported": RegisterFileCacheFactory(
            caching="non-bypass",
            fetch="fetch-on-demand",
            upper_read_ports=4,
            upper_write_ports=2,
            lower_write_ports=4,
            buses=2,
        ),
    }


def filter_matrix(
    architectures: Dict[str, RegfileFactory], name_filter: Optional[str]
) -> Dict[str, RegfileFactory]:
    """Restrict a matrix to names containing ``name_filter``.

    Raises
    ------
    ValidationError
        If the filter matches nothing, listing the known names.
    """
    if name_filter is None:
        return dict(architectures)
    selected = {
        name: factory
        for name, factory in architectures.items()
        if name_filter in name
    }
    if not selected:
        raise ValidationError(
            f"architecture filter {name_filter!r} matches nothing "
            f"(known: {', '.join(architectures)})"
        )
    return selected


def _first_divergent(
    oracle: OracleResult, observed_log: Optional[list]
) -> Tuple[Optional[int], Optional[str], Optional[str]]:
    """Locate the first commit where the two logs disagree."""
    expected_log = oracle.log
    if expected_log is None or observed_log is None:
        return None, None, None
    for index, (expected, observed) in enumerate(zip(expected_log, observed_log)):
        if expected != observed:
            return index, expected, observed
    shorter = min(len(expected_log), len(observed_log))
    expected = expected_log[shorter] if shorter < len(expected_log) else None
    observed = observed_log[shorter] if shorter < len(observed_log) else None
    return shorter, expected, observed


def run_differential(
    trace: Trace,
    config: ProcessorConfig,
    architectures: Optional[Dict[str, RegfileFactory]] = None,
    scenario: Optional[dict] = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    fault: Optional[InjectedFault] = None,
    repro: str = "",
) -> ScenarioValidation:
    """Replay ``trace`` through every architecture and diff against the oracle.

    ``config.max_instructions`` bounds the committed prefix; every
    architecture and the oracle consume exactly the same prefix of the
    same materialized trace.  The frontend (fetch grouping, branch
    prediction, I-cache) runs **once** through the shared
    :mod:`repro.trace` recorder and every architecture replays the
    decoded stream, bit-identical to a live run of each architecture
    (``tests/test_validate_differential.py`` checks both).  ``fault``
    (test use only, see :mod:`repro.validate.faults`) corrupts the
    observation of one architecture so the detection machinery itself
    can be verified.
    """
    matrix = dict(architectures) if architectures is not None else validation_matrix()
    if not matrix:
        raise ValidationError("differential run needs at least one architecture")
    if fault is not None and fault.architecture not in matrix:
        raise ValidationError(
            f"fault targets unknown architecture {fault.architecture!r} "
            f"(known: {', '.join(matrix)})"
        )

    decoded = record_trace(
        trace.name,
        iter(trace),
        config,
        {
            "kind": "validate-scenario",
            "name": trace.name,
            "instructions": len(trace),
        },
    )

    oracle = run_oracle(
        iter(trace), config.max_instructions, checkpoint_interval=checkpoint_interval
    )
    result = ScenarioValidation(
        scenario=dict(scenario or {"benchmark": trace.name}),
        oracle=oracle.snapshot(),
    )

    fault_observer: Optional[FaultInjectingObserver] = None
    for name, factory in matrix.items():
        if fault is not None and fault.architecture == name:
            fault_observer = FaultInjectingObserver(
                fault, checkpoint_interval=checkpoint_interval
            )
            observer: CommitObserver = fault_observer
        else:
            observer = CommitObserver(checkpoint_interval=checkpoint_interval)
        try:
            stats = replay_simulate(
                decoded,
                factory,
                config,
                benchmark_name=trace.name,
                commit_observer=observer,
            )
        except SimulationError as error:
            result.outcomes.append(
                ArchitectureOutcome(architecture=name, error=str(error))
            )
            result.divergences.append(
                Divergence(
                    architecture=name,
                    kind="simulation_error",
                    detail=str(error),
                    repro=repro,
                )
            )
            continue

        snapshot = observer.snapshot()
        result.outcomes.append(
            ArchitectureOutcome(
                architecture=name,
                count=snapshot["count"],
                digest=snapshot["digest"],
                state=snapshot["state"],
                checkpoints=snapshot["checkpoints"],
                ipc=round(stats.ipc, 6),
                cycles=stats.cycles,
            )
        )
        result.divergences.extend(
            _diff_against_oracle(name, oracle, observer, repro)
        )

    if fault is not None and (fault_observer is None or not fault_observer.triggered):
        # A requested fault that never fired must not produce a clean
        # verdict: a self-test of the detector would "pass" vacuously
        # (e.g. a commit index beyond the committed prefix).
        result.divergences.append(
            Divergence(
                architecture=fault.architecture,
                kind="fault_not_triggered",
                detail=(
                    f"injected fault at commit {fault.commit_index} never fired "
                    f"(only {oracle.count} instructions committed)"
                ),
                repro=repro,
            )
        )
    return result


def _diff_against_oracle(
    name: str, oracle: OracleResult, observer: CommitObserver, repro: str
) -> list:
    """All divergences between one architecture's observation and the oracle."""
    divergences = []
    accumulator = observer.accumulator
    if accumulator.count != oracle.count:
        index, expected, observed = _first_divergent(oracle, accumulator.log)
        divergences.append(
            Divergence(
                architecture=name,
                kind="commit_count",
                detail=(
                    f"committed {accumulator.count} instructions, "
                    f"oracle committed {oracle.count}"
                ),
                first_divergent_commit=index,
                expected_record=expected,
                observed_record=observed,
                repro=repro,
            )
        )
    elif accumulator.digest() != oracle.digest:
        index, expected, observed = _first_divergent(oracle, accumulator.log)
        divergences.append(
            Divergence(
                architecture=name,
                kind="commit_stream",
                detail="commit-order checksum mismatch",
                first_divergent_commit=index,
                expected_record=expected,
                observed_record=observed,
                repro=repro,
            )
        )
    # The state comparison is redundant with the checksum when both sides
    # derive state from the same records — which is exactly why it is
    # kept separate: it catches corruption of the state-tracking path
    # itself, and reads better in reports.
    observed_state = accumulator.state_snapshot()
    if not divergences and observed_state != oracle.state:
        changed = sorted(
            set(observed_state.items()) ^ set(oracle.state.items())
        )
        divergences.append(
            Divergence(
                architecture=name,
                kind="architectural_state",
                detail=(
                    f"final register state differs in "
                    f"{len(changed)} binding(s): "
                    + ", ".join(f"{reg}={seq}" for reg, seq in changed[:6])
                ),
                repro=repro,
            )
        )
    return divergences

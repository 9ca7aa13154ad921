"""The fixed benchmark matrix executed by :mod:`repro.bench`.

Every scenario follows one protocol: a ``name``, a ``kind``, whether it
is ``timed_once`` or timed best-of-``repeats``, ``metadata()``,
``describe()`` (its ``--list`` line) and a ``run()`` returning one
:class:`Outcome`.  :func:`all_scenarios` lists the matrix in report
order, and :meth:`~repro.bench.runner.BenchmarkRunner.measure` times any
scenario the same way.  The kinds:

* **simulation** — end-to-end runs of the cycle-level simulator:
  synthetic profiles × register-file architectures × instruction
  budgets.  The ``headline`` scenario (gcc on the paper's register file
  cache) is the number the single-run performance work is judged by.
* **sweep** — a figure-style sweep (one workload through a matrix of
  register-file architectures × register budgets), measured in
  points/minute.  The ``replay`` variant runs the experiment scheduler's
  trace-once/replay-many engine, the ``live`` variant the reference
  loop it replaced (every point with its own workload generation and
  frontend) — their ratio is the sweep-throughput headline.  The
  exact-vs-sampled sweep is a sweep too; its headline is the per-point
  speedup of systematic sampling.
* **service** — a figure plan pushed through the sweep service's full
  HTTP path (submit via :class:`ServiceClient`, execute on the service's
  :class:`~repro.experiments.scheduler.SweepEngine`, poll to
  completion), measured in points/minute — the perf gate's view of the
  :mod:`repro.service` subsystem.  An A/B service scenario interleaves
  the production pass with an alternate one (a no-op chaos injector, a
  bare telemetry registry) and reports their wall ratio.
* **store** — the sharded segment-log store hammered directly (writes,
  re-reads, deletes, compaction, a cold reopen), measured in store
  operations/second — the perf gate's view of the :mod:`repro.storage`
  subsystem every cache hit rides on.
* **component** — microbenchmarks of the simulator's building blocks,
  reused from the repository's ``benchmarks/`` pytest-benchmark suite
  via a small timing shim, so the same kernels back both harnesses.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Protocol

from repro.canonical import canonical_json
from repro.experiments.common import (
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    run_simulation_point,
)
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Extra stream slack so the pipeline never drains before the commit cap.
_STREAM_SLACK = 1.5


@dataclass
class Outcome:
    """What one run of a scenario produced; the runner adds the timing.

    Simulations report ``cycles``/``instructions``; every other kind
    reports ``operations`` (points, store operations, kernel
    operations).  ``metadata`` is merged over the scenario's own
    ``metadata()``.  ``wall_seconds`` is set only by a scenario that
    runs several passes and whose metric describes one of them.
    """

    operations: Optional[int] = None
    cycles: Optional[int] = None
    instructions: Optional[int] = None
    stats_digest: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    wall_seconds: Optional[float] = None


class Scenario(Protocol):
    """The protocol every bench scenario implements."""

    name: str
    #: The report's ``kind`` for this scenario.
    kind: ClassVar[str]
    #: ``True``: timed once; ``False``: best of the runner's ``repeats``.
    timed_once: ClassVar[bool]

    def metadata(self) -> Dict[str, object]: ...

    def describe(self) -> str: ...

    def run(self) -> Outcome: ...


def _digest(payloads: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of each payload, in order."""
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class SimulationScenario:
    """One (profile, architecture, instruction budget) simulation."""

    name: str
    profile: str
    factory: Callable[[], object]
    instructions: int
    architecture: str
    collect_occupancy: bool = False
    headline: bool = False

    kind: ClassVar[str] = "simulation"
    timed_once: ClassVar[bool] = False

    def run(self) -> Outcome:
        workload = SyntheticWorkload(get_profile(self.profile))
        config = ProcessorConfig(
            max_instructions=self.instructions,
            collect_occupancy=self.collect_occupancy,
        )
        stream = workload.instructions(int(self.instructions * _STREAM_SLACK))
        stats = simulate(stream, self.factory, config, benchmark_name=self.profile)
        return Outcome(
            cycles=stats.cycles,
            instructions=stats.committed_instructions,
            stats_digest=_digest([stats.to_dict()]),
        )

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "architecture": self.architecture,
            "instructions": self.instructions,
            "collect_occupancy": self.collect_occupancy,
            "headline": self.headline,
        }

    def describe(self) -> str:
        tag = " [headline]" if self.headline else ""
        return f"{self.name}: {self.instructions} instructions on {self.architecture}{tag}"


#: The architectures swept by the simulation matrix.
_ARCHITECTURES: Dict[str, Callable[[], object]] = {
    "1-cycle": SingleBankedFactory(latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "2-cycle-1-bypass": SingleBankedFactory(
        latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"
    ),
    "one-level-banked": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2
    ),
    "register-file-cache": RegisterFileCacheFactory(),
}

#: The headline architecture: the paper's proposal with limited resources.
_HEADLINE_FACTORY = RegisterFileCacheFactory(
    upper_read_ports=4,
    upper_write_ports=2,
    lower_write_ports=4,
    buses=2,
)


def simulation_scenarios(quick: bool = False) -> List[SimulationScenario]:
    """The simulation matrix (reduced budgets in ``quick`` mode)."""
    headline_budget = 4000 if quick else 12000
    matrix_budget = 1500 if quick else 6000
    scenarios = [
        SimulationScenario(
            name="headline/gcc/register-file-cache",
            profile="gcc",
            factory=_HEADLINE_FACTORY,
            instructions=headline_budget,
            architecture="register file cache (4R/2W upper, 2 buses)",
            headline=True,
        )
    ]
    for arch_key, factory in _ARCHITECTURES.items():
        for profile in ("gcc", "swim"):
            scenarios.append(
                SimulationScenario(
                    name=f"matrix/{profile}/{arch_key}",
                    profile=profile,
                    factory=factory,
                    instructions=matrix_budget,
                    architecture=arch_key,
                )
            )
    scenarios.append(
        SimulationScenario(
            name="matrix/gcc/register-file-cache/occupancy",
            profile="gcc",
            factory=_ARCHITECTURES["register-file-cache"],
            instructions=matrix_budget,
            architecture="register-file-cache",
            collect_occupancy=True,
        )
    )
    return scenarios


def headline_scenario(quick: bool = False) -> SimulationScenario:
    """The scenario the ≥1.5× cycles/sec acceptance target refers to."""
    return next(s for s in simulation_scenarios(quick) if s.headline)


# ----------------------------------------------------------------------
# sweep scenarios (trace-once / replay-many engine)
# ----------------------------------------------------------------------

#: The figure-style sweep matrix: every register-file family of the
#: paper (three monolithic timings, one-level banked, the register file
#: cache across caching/fetch policies and a port-constrained point).
_SWEEP_ARCHITECTURES: Dict[str, Callable[[], object]] = {
    "mono-1c": SingleBankedFactory(latency=1, bypass_levels=1, name="1-cycle single-banked"),
    "mono-2c-full-bypass": SingleBankedFactory(
        latency=2, bypass_levels=2, name="2-cycle single-banked, full bypass"
    ),
    "mono-2c-1-bypass": SingleBankedFactory(
        latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass"
    ),
    "banked-4x2r2w": OneLevelBankedFactory(
        num_banks=4, read_ports_per_bank=2, write_ports_per_bank=2
    ),
    "rfc-non-bypass": RegisterFileCacheFactory(caching="non-bypass", fetch="prefetch-first-pair"),
    "rfc-ready": RegisterFileCacheFactory(caching="ready", fetch="prefetch-first-pair"),
    "rfc-always-demand": RegisterFileCacheFactory(caching="always", fetch="fetch-on-demand"),
    "rfc-ported": RegisterFileCacheFactory(
        upper_read_ports=4, upper_write_ports=2, lower_write_ports=4, buses=2
    ),
}

#: Physical-register budgets swept per architecture (figure-1 style).
_SWEEP_REGISTER_BUDGETS = (128, 64)


@dataclass(frozen=True)
class SweepScenario:
    """One figure-style sweep, replayed or live.

    All points share one (workload, frontend configuration), so the
    scheduler's trace-replay engine records once and replays the whole
    matrix; the ``live`` variant runs the identical matrix through
    :func:`run_simulation_point` without a trace, so every point pays
    its own workload generation and frontend.  The primary metric is
    points/minute over the full sweep, scheduler included.
    """

    name: str
    profile: str
    instructions: int
    use_trace_replay: bool
    headline_sweep: bool = False

    kind: ClassVar[str] = "sweep"
    timed_once: ClassVar[bool] = True

    def points(self) -> List[SimulationPoint]:
        matrix: List[SimulationPoint] = []
        for budget in _SWEEP_REGISTER_BUDGETS:
            config = ProcessorConfig(
                max_instructions=self.instructions,
                num_int_physical=budget,
                num_fp_physical=budget,
            )
            for arch_key, factory in _SWEEP_ARCHITECTURES.items():
                matrix.append(
                    SimulationPoint(
                        benchmark=self.profile,
                        factory=factory,
                        architecture=f"{arch_key}/r{budget}",
                        config=config,
                    )
                )
        return matrix

    def run(self) -> Outcome:
        """Execute the sweep cold (fresh stores) and digest every result."""
        points = self.points()
        store = ResultStore()
        if self.use_trace_replay:
            summary = SweepEngine(store=store, jobs=1).execute(points)
        else:
            for point in points:
                store.put(point.store_key(), run_simulation_point(point), metadata=point.metadata())
            summary = {"requested": len(points), "executed": len(points)}
        return Outcome(
            operations=len(points),
            stats_digest=_digest(store.get(point.store_key()).to_dict() for point in points),
            metadata={"scheduler_summary": summary},
        )

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "instructions": self.instructions,
            "points": len(self.points()),
            "architectures": len(_SWEEP_ARCHITECTURES),
            "register_budgets": list(_SWEEP_REGISTER_BUDGETS),
            "use_trace_replay": self.use_trace_replay,
            "headline_sweep": self.headline_sweep,
        }

    def describe(self) -> str:
        tag = " [sweep headline]" if self.headline_sweep else ""
        mode = "trace replay" if self.use_trace_replay else "live frontend"
        return (
            f"{self.name}: {len(self.points())} points x "
            f"{self.instructions} instructions via {mode}{tag}"
        )


@dataclass(frozen=True)
class SampledSweepScenario:
    """Exact-vs-sampled replay of one figure-style architecture matrix.

    One decoded trace is recorded and every architecture replays it
    twice: once exactly (every instruction gets detailed timing) and
    once through the systematic-sampling engine (detailed windows at a
    fixed stride, functional warm-up between them, IPC as mean ± CI).
    The committed metric is ``per_point_speedup`` — exact seconds over
    sampled seconds, summed across the matrix — the factor the sampling
    engine buys per sweep point; the accuracy side of the same trade is
    gated separately by ``repro.validate --sampled-accuracy``.  It is a
    self-relative ratio, so it needs no calibration normalization.
    """

    name: str
    profile: str
    instructions: int
    sample: str  # SamplingSpec text, "STRIDE:WINDOW[:WARMUP]"
    architectures: tuple  # keys into _SWEEP_ARCHITECTURES
    register_budget: int = 128

    kind: ClassVar[str] = "sweep"
    timed_once: ClassVar[bool] = True

    def run(self) -> Outcome:
        from repro.sampling import parse_sampling, sampled_simulate
        from repro.trace import record_trace, replay_simulate

        spec = parse_sampling(self.sample)
        config = ProcessorConfig(
            max_instructions=self.instructions,
            num_int_physical=self.register_budget,
            num_fp_physical=self.register_budget,
        )
        workload = SyntheticWorkload(get_profile(self.profile))
        trace = record_trace(
            self.profile,
            workload.instructions(int(self.instructions * _STREAM_SLACK)),
            config,
            {
                "kind": "bench-sampled-sweep",
                "benchmark": self.profile,
                "instructions": self.instructions,
            },
        )
        results = []
        exact_seconds = 0.0
        sampled_seconds = 0.0
        for arch_key in self.architectures:
            factory = _SWEEP_ARCHITECTURES[arch_key]
            started = time.perf_counter()
            exact = replay_simulate(trace, factory, config, benchmark_name=self.profile)
            exact_seconds += time.perf_counter() - started
            started = time.perf_counter()
            sampled = sampled_simulate(trace, factory, config, spec, benchmark_name=self.profile)
            sampled_seconds += time.perf_counter() - started
            results += [exact.to_dict(), sampled.to_dict()]
        points = len(self.architectures)
        speedup = exact_seconds / sampled_seconds if sampled_seconds > 0 else 0.0
        return Outcome(
            operations=points,
            stats_digest=_digest(results),
            metadata={
                "summary": {
                    "architectures": list(self.architectures),
                    "exact_points": points,
                    "sampled_points": points,
                },
                "exact_seconds": round(exact_seconds, 3),
                "sampled_seconds": round(sampled_seconds, 3),
                "per_point_speedup": round(speedup, 2),
                "sampling": spec.to_payload(),
            },
        )

    def metadata(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "instructions": self.instructions,
            "sample": self.sample,
            "architectures": list(self.architectures),
            "register_budget": self.register_budget,
        }

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.architectures)} architectures x "
            f"{self.instructions} instructions, exact vs sampled ({self.sample})"
        )


def sampled_sweep_scenarios(quick: bool = False) -> List[SampledSweepScenario]:
    """Exact-vs-sampled comparison sweeps.

    The instruction budget stays at sampling scale even in ``quick``
    mode — systematic sampling needs a stream long enough to hold its
    stride plan — so quick mode shrinks the architecture matrix
    instead.  The spec (stride 3000, window 200, warm-up 200) keeps
    ~7% of instructions detailed, which is where the ≥5× per-point
    speedup the trajectory commits to comes from.
    """
    architectures = (
        ("mono-1c", "mono-2c-1-bypass", "rfc-ported") if quick else tuple(_SWEEP_ARCHITECTURES)
    )
    return [
        SampledSweepScenario(
            name="sweep/gcc/sampled-vs-exact",
            profile="gcc",
            instructions=24000,
            sample="3000:200:200",
            architectures=architectures,
        )
    ]


def sweep_scenarios(quick: bool = False) -> List[SweepScenario]:
    """The sweep matrices in both execution modes.

    Two benchmarks bracket the engine's win: ``fpppp`` (FP; the heaviest
    workload generation, so trace-once amortizes the most — the sweep
    headline) and ``gcc`` (INT; generation-light, the conservative end).
    Each also runs in ``live`` mode — the identical matrix without a
    trace — so every report carries its own like-for-like ratio.
    """
    budget = 1500 if quick else 6000
    scenarios = []
    for profile, headline in (("fpppp", True), ("gcc", False)):
        for replay in (True, False):
            mode = "replay" if replay else "live"
            scenarios.append(
                SweepScenario(
                    name=f"sweep/{profile}/figure-matrix-{mode}",
                    profile=profile,
                    instructions=budget,
                    use_trace_replay=replay,
                    headline_sweep=headline and replay,
                )
            )
    return scenarios


# ----------------------------------------------------------------------
# service scenarios (submit -> complete through the HTTP sweep service)
# ----------------------------------------------------------------------


def _service_pass(figure: str, settings: dict, **app_kwargs) -> Dict[str, object]:
    """Push one figure plan through a cold in-process sweep service.

    Boots a service on a fresh cache tree and a free port, submits the
    plan with the client, watches it to completion, digests the result
    and tears everything down.  ``app_kwargs`` go to
    :class:`~repro.service.app.ServiceApp`.  Returns the job's
    ``counters``, its unique ``points``, the submit-to-completion
    ``wall_seconds`` and the result ``digest``.
    """
    import shutil
    import tempfile

    from repro.errors import SimulationError
    from repro.service.client import ServiceClient
    from repro.service.server import InProcessService

    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        with InProcessService(cache_dir=tmp, jobs=1, job_concurrency=1, **app_kwargs) as service:
            client = ServiceClient(service.url)
            started = time.perf_counter()
            job = client.submit({"figure": figure, "settings": settings})
            final = client.watch(job["id"], interval=0.05, timeout=1800)
            wall = time.perf_counter() - started
            if final.get("state") != "completed":
                raise SimulationError(f"service bench job did not complete: {final.get('error')}")
            result = client.result(job["id"])
        return {
            "points": int(final["counters"]["unique"]),
            "counters": final["counters"],
            "wall_seconds": wall,
            "digest": _digest([result["result"]]),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: The A/B comparisons a :class:`ServiceScenario` can run, keyed by its
#: alternate pass.  Each names its two passes as (pass label, summary
#: key), lighter first: every round runs them in that order, and the
#: reported ratio is the heavier pass over the lighter one.
_AB_PASSES = {
    "noop-injector": (("seams-disabled", "disabled"), ("noop-injector", "instrumented")),
    "bare-registry": (("bare-registry", "bare"), ("full-telemetry", "full")),
}


@dataclass(frozen=True)
class ServiceScenario:
    """One figure plan through the sweep service's full HTTP path.

    Each pass boots a cold in-process service (fresh stores, a free
    port), submits the plan with the client, polls it to completion and
    tears the service down — so the measured points/minute includes
    admission, queueing, scheduling and result assembly, everything a
    real client pays on top of the raw engine.

    With an ``alternate`` (a key of :data:`_AB_PASSES`) the scenario is
    an A/B comparison: ``pairs`` rounds each run the production-default
    pass and the alternate on cold cache trees — ``noop-injector``
    installs a zero-fault chaos injector (every seam guard takes its
    slow path), ``bare-registry`` runs with a bare metrics registry (no
    event log, no event bus).  The best wall per side is compared — the
    interleaved best-of estimator from ``docs/benchmarking.md``, since a
    single ~1 s service wall carries enough scheduler and watch-poll
    noise to swamp a few-percent ratio.  The throughput metric is the
    best production pass; the two walls and their ratio land in the
    ``job_counters`` summary.  Every pass must produce byte-identical
    results; a divergence fails the run outright.
    """

    name: str
    figure: str
    instructions: int
    warmup_instructions: int
    benchmarks: tuple
    #: The pass compared against production (a key of ``_AB_PASSES``);
    #: ``None`` runs one plain round trip.
    alternate: Optional[str] = None
    #: Interleaved A/B rounds; the best wall per side is compared.
    pairs: int = 1

    kind: ClassVar[str] = "service"
    timed_once: ClassVar[bool] = True

    def _one_pass(self, label: str) -> Dict[str, object]:
        """One cold service pass in the configuration ``label`` names."""
        settings = {
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
        }
        if label == "noop-injector":
            from repro.chaos import seams
            from repro.chaos.faults import FaultInjector

            seams.install(FaultInjector([]))
            try:
                return _service_pass(self.figure, settings)
            finally:
                seams.uninstall()
        if label == "bare-registry":
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.telemetry import Telemetry

            bare = Telemetry(registry=MetricsRegistry())
            return _service_pass(self.figure, settings, telemetry=bare)
        return _service_pass(self.figure, settings)

    def run(self) -> Outcome:
        if self.alternate is None:
            single = self._one_pass("production")
            return Outcome(
                operations=single["points"],
                stats_digest=single["digest"],
                metadata={"job_counters": single["counters"]},
            )
        from repro.chaos import seams
        from repro.errors import SimulationError

        if seams.installed():
            raise SimulationError("A/B service bench needs the chaos seams disabled at entry")
        light, heavy = _AB_PASSES[self.alternate]
        walls: Dict[str, List[float]] = {light[1]: [], heavy[1]: []}
        first = None
        for _ in range(max(1, self.pairs)):
            for label, key in (light, heavy):
                outcome = self._one_pass(label)
                if first is None:
                    first = outcome
                elif outcome["digest"] != first["digest"]:
                    raise SimulationError(
                        f"{label} service pass diverged from the {light[0]} pass — "
                        f"the {self.alternate} comparison is not transparent"
                    )
                walls[key].append(outcome["wall_seconds"])
        best = {key: min(values) for key, values in walls.items()}
        summary: Dict[str, object] = {
            f"{key}_wall_seconds": round(wall, 3) for key, wall in best.items()
        }
        ratio = best[heavy[1]] / best[light[1]] if best[light[1]] else 0.0
        summary[f"{heavy[1]}_over_{light[1]}"] = round(ratio, 3)
        summary["pairs"] = max(1, self.pairs)
        production = light if heavy[0] == self.alternate else heavy
        return Outcome(
            operations=first["points"],
            stats_digest=first["digest"],
            metadata={"job_counters": summary},
            wall_seconds=best[production[1]],
        )

    def metadata(self) -> Dict[str, object]:
        metadata: Dict[str, object] = {
            "figure": self.figure,
            "instructions": self.instructions,
            "warmup_instructions": self.warmup_instructions,
            "benchmarks": list(self.benchmarks),
            "transport": "http",
        }
        if self.alternate is not None:
            metadata["passes"] = [label for label, _ in _AB_PASSES[self.alternate]]
        return metadata

    def describe(self) -> str:
        return (
            f"{self.name}: {self.figure} plan over {'/'.join(self.benchmarks)} x "
            f"{self.instructions} instructions through the HTTP sweep service"
        )


def service_scenarios(quick: bool = False) -> List[ServiceScenario]:
    """The service-path scenarios (quick-eligible, so CI gates them too)."""
    return [
        ServiceScenario(
            name="service_throughput/figure6",
            figure="figure6",
            instructions=1500 if quick else 6000,
            warmup_instructions=300 if quick else 2000,
            benchmarks=("gcc", "swim"),
        ),
        # The chaos seams must cost nothing when no injector is installed.
        ServiceScenario(
            name="resilience_overhead/figure6",
            figure="figure6",
            instructions=1500 if quick else 6000,
            warmup_instructions=300 if quick else 2000,
            benchmarks=("gcc",),
            alternate="noop-injector",
        ),
        # Telemetry (spans, histograms, the event log) must be nearly
        # free.  Deliberately NOT shrunk under --quick: on a sub-second
        # job the client's 50 ms watch-poll quantisation swamps the
        # ratio being measured; the full-size plan keeps the signal above
        # the noise.
        ServiceScenario(
            name="obs_overhead/figure6",
            figure="figure6",
            instructions=6000,
            warmup_instructions=2000,
            benchmarks=("gcc",),
            alternate="bare-registry",
            pairs=3,
        ),
    ]


# ----------------------------------------------------------------------
# store scenarios (sharded segment-log store, hammered directly)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreScenario:
    """One write/read/compact workout of the sharded segment-log store.

    The run writes ``entries`` deterministic values, re-reads the whole
    key space ``read_passes`` times, overwrites half the keys (creating
    dead bytes), deletes a quarter, compacts, and finally reopens the
    tree cold — the index rebuild every replica pays at startup.  The
    metric is store operations/second over the whole sequence; the
    digest hashes every byte read, so a payload corruption anywhere
    fails the determinism gate.
    """

    name: str
    entries: int
    value_bytes: int
    read_passes: int = 2

    kind: ClassVar[str] = "store"
    timed_once: ClassVar[bool] = False

    def _key(self, index: int) -> str:
        return hashlib.sha256(f"bench-store-{index}".encode()).hexdigest()

    def _value(self, index: int, generation: int) -> bytes:
        seed = f"{self.name}:{index}:{generation}".encode()
        block = hashlib.sha256(seed).digest()
        repeated = block * (self.value_bytes // len(block) + 1)
        return repeated[: self.value_bytes]

    def run(self) -> Outcome:
        import shutil
        import tempfile

        from repro.storage.sharded import ShardedStore

        tmp = tempfile.mkdtemp(prefix="repro-bench-store-")
        digest = hashlib.sha256()
        operations = 0
        try:
            store = ShardedStore(tmp, num_shards=16)
            for index in range(self.entries):
                store.put(self._key(index), self._value(index, 0))
            operations += self.entries
            for _ in range(self.read_passes):
                for index in range(self.entries):
                    digest.update(store.get(self._key(index)) or b"")
                operations += self.entries
            for index in range(0, self.entries, 2):  # dead bytes to compact
                store.put(self._key(index), self._value(index, 1))
                operations += 1
            for index in range(0, self.entries, 4):
                store.delete(self._key(index))
                operations += 1
            store.compact()
            operations += 1
            stats = store.stats()  # counters of the instance that did the work
            reopened = ShardedStore(tmp, num_shards=16)  # cold index rebuild
            for index in range(self.entries):
                digest.update(reopened.get(self._key(index)) or b"")
            operations += self.entries
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return Outcome(
            operations=operations,
            stats_digest=digest.hexdigest(),
            metadata={"store_stats": stats},
        )

    def metadata(self) -> Dict[str, object]:
        return {
            "entries": self.entries,
            "value_bytes": self.value_bytes,
            "read_passes": self.read_passes,
            "num_shards": 16,
        }

    def describe(self) -> str:
        return (
            f"{self.name}: {self.entries} x {self.value_bytes}B entries "
            f"through the sharded segment-log store"
        )


def store_scenarios(quick: bool = False) -> List[StoreScenario]:
    """The store-throughput scenario (quick-eligible, so CI gates it)."""
    return [
        StoreScenario(
            name="store_throughput/sharded-segment-log",
            entries=400 if quick else 2000,
            value_bytes=2048 if quick else 8192,
        )
    ]


# ----------------------------------------------------------------------
# component microbenchmarks, reused from benchmarks/bench_components.py
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentScenario:
    """One microbenchmark kernel borrowed from ``benchmarks/``."""

    name: str
    source: str  # qualified name of the reused benchmark function
    runner: Callable[[], int] = field(compare=False)

    kind: ClassVar[str] = "component"
    timed_once: ClassVar[bool] = False

    def run(self) -> Outcome:
        """Execute the kernel once; reports its operation count."""
        return Outcome(operations=self.runner() or None)

    def metadata(self) -> Dict[str, object]:
        return {"source": self.source}

    def describe(self) -> str:
        return f"{self.name}: reuses {self.source}"


class _OnceShim:
    """Minimal stand-in for the pytest-benchmark ``benchmark`` fixture.

    The functions in ``benchmarks/bench_components.py`` call
    ``benchmark(fn)`` and assert on the returned value; this shim runs
    the kernel exactly once, hands the result back to that assertion and
    records it, so the bench runner can do its own repeat/timing policy
    around the whole call.
    """

    def __init__(self) -> None:
        self.result: Optional[int] = None

    def __call__(self, fn: Callable[[], int]) -> int:
        self.result = fn()
        return self.result


def _load_component_benchmarks() -> Optional[object]:
    """Import ``benchmarks.bench_components`` when the repo root allows it.

    The ``benchmarks/`` tree sits next to ``src/`` rather than inside the
    package, so it is importable when running from a repository checkout
    but not from an installed wheel; component scenarios simply drop out
    in the latter case.
    """
    try:
        from benchmarks import bench_components
    except ImportError:
        return None
    return bench_components


def component_scenarios(quick: bool = False) -> List[ComponentScenario]:
    """Microbenchmark scenarios (empty when ``benchmarks/`` is absent)."""
    module = _load_component_benchmarks()
    if module is None:
        return []
    names = [
        "bench_workload_generation",
        "bench_gshare_prediction_throughput",
        "bench_dcache_accesses",
        "bench_pseudo_lru_operations",
        "bench_register_file_cache_writeback_path",
    ]
    scenarios: List[ComponentScenario] = []
    for name in names:
        fn = getattr(module, name, None)
        if fn is None:
            continue
        short = name.removeprefix("bench_")

        def runner(fn=fn) -> int:
            shim = _OnceShim()
            fn(shim)
            return shim.result if shim.result is not None else 0

        scenarios.append(
            ComponentScenario(
                name=f"component/{short}",
                source=f"benchmarks.bench_components.{name}",
                runner=runner,
            )
        )
    return scenarios


def all_scenarios(quick: bool = False) -> List[Scenario]:
    """The whole matrix in report order (what ``--list`` prints)."""
    return [
        *simulation_scenarios(quick),
        *sweep_scenarios(quick),
        *sampled_sweep_scenarios(quick),
        *service_scenarios(quick),
        *store_scenarios(quick),
        *component_scenarios(quick),
    ]


def with_budget(scenario: SimulationScenario, instructions: int) -> SimulationScenario:
    """Copy of ``scenario`` with a different instruction budget."""
    return replace(scenario, instructions=instructions)

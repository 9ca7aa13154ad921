"""The cold figure-sweep workloads: ``sweep-int-rfc`` and ``sweep-fp-mono``.

One round is one cold ``SweepEngine.execute`` (jobs=1, fresh in-memory
result and trace stores) over the workload's seeded plan, with a warm
re-request of one completed point after each cold point.  Rounds repeat
until the run's time is up.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from common import (
    SWEEP_INSTRUCTIONS,
    SWEEP_WARMUP,
    mean,
    simulated_counts,
    stats_digest,
)
from hostspeed import HostSpeed
from probes import LayerProbes
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import plan_experiments
from repro.experiments.scheduler import SimulationPoint, SweepEngine, dedupe_points
from repro.experiments.store import ResultStore
from repro.trace import TraceStore
from repro.workloads.spec_suites import SPECFP95, SPECINT95


def _int_rfc(architecture: str) -> bool:
    return architecture.startswith("rfc/") or architecture == "1-cycle"


def _fp_mono(architecture: str) -> bool:
    return not architecture.startswith("rfc/")


#: workload -> (suite, benchmarks drawn by seed, figures planned,
#: architectures kept).  The subsets leave out two benchmarks of each
#: suite: a larger share of the suite keeps the seeds' cost mixes close.
SWEEPS = {
    "sweep-int-rfc": (SPECINT95, 6, ("figure2", "figure5", "figure9"), _int_rfc),
    "sweep-fp-mono": (SPECFP95, 8, ("figure2", "figure9"), _fp_mono),
}


def universe(workload: str) -> List[SimulationPoint]:
    """Every point the workload can plan, over the whole suite."""
    suite = SWEEPS[workload][0]
    return _plan(workload, list(suite))


def _plan(workload: str, benchmarks: List[str]) -> List[SimulationPoint]:
    _, _, figures, keep = SWEEPS[workload]
    settings = ExperimentSettings(
        instructions_per_benchmark=SWEEP_INSTRUCTIONS,
        warmup_instructions=SWEEP_WARMUP,
        benchmarks=benchmarks,
    )
    points = plan_experiments(list(figures), settings)
    return [p for p in dedupe_points(points).values() if keep(p.architecture)]


def seeded_plan(workload: str, seed: int) -> List[SimulationPoint]:
    """The seed picks the benchmark subset and the point order."""
    rng = random.Random(f"{workload}:{seed}")
    suite, size, _, _ = SWEEPS[workload]
    points = _plan(workload, rng.sample(list(suite), size))
    rng.shuffle(points)
    return points


class SweepRun:
    """Executes rounds of one sweep workload and checks every digest."""

    def __init__(self, points: List[SimulationPoint], expected: Dict[str, str],
                 seed: int):
        self.points = points
        self.rng = random.Random(f"warm:{seed}")
        self.keys = [p.store_key() for p in points]
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.host = HostSpeed()
        #: Cold sweep walls at reference host speed, and as measured.
        self.cold_walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cold_latencies: List[float] = []
        self.warm_latencies: List[float] = []
        self.sim_instructions = 0
        self.round_stats: List[dict] = []

    def round(self, probes: LayerProbes = None) -> float:
        """One cold sweep with warm re-requests interleaved; returns its wall.

        After each cold point lands, the host speed is probed and one
        point already completed in this round is requested again (a
        result-store hit).  Interleaving spreads the warm samples over the
        whole run.  Probe and warm request are excluded from the cold
        figures; every sample is scaled to reference host speed by the
        probes next to it (see hostspeed.py).
        """
        engine = SweepEngine(store=ResultStore(), trace_store=TraceStore(), jobs=1)
        if probes is not None:
            probes.watch_stores(engine.store, engine.trace_store)
            probes.watch_execute(engine)
        completed: List[SimulationPoint] = []
        cold: List[float] = []
        raw: List[float] = []
        before = [self.host.probe()]
        clock = [time.perf_counter()]

        def probe() -> float:
            started = time.perf_counter()
            speed = self.host.probe()
            if probes is not None:
                probes.seconds["benchmark.host_probe"] += time.perf_counter() - started
            return speed

        def on_point(point: SimulationPoint) -> None:
            landed = time.perf_counter()
            after = probe()
            raw.append(landed - clock[0])
            cold.append(self.host.scale(landed - clock[0], before[0], after))
            completed.append(point)
            again = self.rng.choice(completed)
            warm_started = time.perf_counter()
            engine.execute([again])
            warm_s = time.perf_counter() - warm_started
            before[0] = probe()
            self.warm_latencies.append(self.host.scale(warm_s, after, before[0]))
            clock[0] = time.perf_counter()

        started = clock[0]
        engine.execute(self.points, on_point=on_point)
        wall = time.perf_counter() - started
        self.cold_walls.append(sum(cold))
        self.raw_walls.append(sum(raw))
        self.cold_latencies.extend(cold)
        self._check(engine)
        return wall

    def close(self) -> None:
        """Nothing to release: the stores live and die with each round."""

    def _check(self, engine: SweepEngine) -> None:
        stats_dicts = []
        for key in self.keys:
            self.attempted += 1
            stats = engine.store.peek(key)
            if stats is None:
                self.failed += 1
                continue
            payload = stats.to_dict()
            stats_dicts.append(payload)
            self.sim_instructions += payload["committed_instructions"]
            if stats_digest(payload) != self.expected.get(key):
                self.failed += 1
        self.round_stats = stats_dicts

    # ------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        cold_seconds = sum(self.cold_walls)
        return {
            "raw_wall_s": mean(self.raw_walls),
            "wall_s": mean(self.cold_walls),
            "sim_kips": self.sim_instructions / cold_seconds / 1000.0,
            "cold": self.cold_latencies,
            "warm": self.warm_latencies,
            "jobs_per_s": len(self.cold_latencies) / cold_seconds,
        }

    def layers(self, probes: LayerProbes, rounds: int) -> Dict[str, float]:
        """Per-round layer figures of the traced rounds."""
        values = probes.metrics(rounds)
        values["storage.bytes_written"] = 0.0
        values.update(simulated_counts(self.round_stats))
        return values

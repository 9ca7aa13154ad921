"""Layer timers for the traced run, installed from outside the program.

Nothing here edits the program: :class:`LayerProbes` wraps the public
functions and store methods each layer is entered through, times every
call with ``perf_counter`` and removes the wrappers again.  The untraced
run never installs them, so its figures carry no probe cost.

Layer entry points wrapped (see README.md for the metric table):

* ``scheduler.build_point_stream`` — synthetic workload generation.  The
  wrapper materialises the lazy stream so generation is timed apart from
  the trace recording that consumes it.
* ``scheduler.record_point_trace`` — trace record (generation nested).
* ``scheduler.run_simulation_point`` — one replayed point (the pipeline:
  frontend replay, rename, execute, regfile, memsys together).
* ``ResultStore.get``/``put`` and ``TraceStore.get``/``put`` of the
  engine's stores, and the engine's ``SweepEngine.execute``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from common import ratio
from repro.experiments import scheduler


class LayerProbes:
    """Accumulates call counts and seconds per layer entry point."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.result_hits = 0
        #: Summed counters returned by every timed ``execute`` call.
        self.execute_counters: Dict[str, float] = defaultdict(float)
        #: One entry per replayed point: (benchmark, architecture,
        #: seconds, committed instructions, cycles).
        self.replays: List[Tuple[str, str, float, int, int]] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------

    def _timed(self, name: str, function: Callable) -> Callable:
        seconds, calls = self.seconds, self.calls

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - started
                calls[name] += 1

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        had_own = attribute in vars(owner)
        original = vars(owner).get(attribute)
        setattr(owner, attribute, replacement)

        def undo() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._undo.append(undo)

    def install(self) -> None:
        """Wrap the module-level layer entry points of the engine."""
        generate = scheduler.build_point_stream
        record = scheduler.record_point_trace
        simulate = scheduler.run_simulation_point
        seconds, calls, replays = self.seconds, self.calls, self.replays

        def timed_generate(point):
            started = time.perf_counter()
            instructions = list(generate(point))
            seconds["workloads.generate"] += time.perf_counter() - started
            calls["workloads.generate"] += 1
            return iter(instructions)

        def timed_simulate(point, trace=None):
            started = time.perf_counter()
            stats = simulate(point, trace)
            elapsed = time.perf_counter() - started
            seconds["pipeline.replay"] += elapsed
            calls["pipeline.replay"] += 1
            replays.append((point.benchmark, point.architecture, elapsed,
                            stats.committed_instructions, stats.cycles))
            return stats

        self._patch(scheduler, "build_point_stream", timed_generate)
        self._patch(scheduler, "record_point_trace",
                    self._timed("trace.record", record))
        self._patch(scheduler, "run_simulation_point", timed_simulate)

    def watch_stores(self, result_store, trace_store) -> None:
        """Wrap one engine's result and trace store methods."""
        get = result_store.get

        def timed_get(key):
            started = time.perf_counter()
            stats = get(key)
            self.seconds["storage.result_get"] += time.perf_counter() - started
            self.calls["storage.result_get"] += 1
            if stats is not None:
                self.result_hits += 1
            return stats

        self._patch(result_store, "get", timed_get)
        self._patch(result_store, "put",
                    self._timed("storage.result_put", result_store.put))
        self._patch(trace_store, "get",
                    self._timed("trace.store_get", trace_store.get))
        self._patch(trace_store, "put",
                    self._timed("trace.store_put", trace_store.put))

    def watch_execute(self, engine) -> None:
        """Time the engine's outermost ``execute`` calls; count them all.

        A call made from inside another (a warm request from an
        ``on_point`` callback) is already inside the outer call's time.
        """
        execute = engine.execute
        depth = [0]

        def counted_execute(*args, **kwargs):
            started = time.perf_counter()
            depth[0] += 1
            try:
                counters = execute(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    self.seconds["experiments.execute"] += (
                        time.perf_counter() - started
                    )
            for name, value in counters.items():
                self.execute_counters[name] += value
            return counters

        self._patch(engine, "execute", counted_execute)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------

    def per_call_ms(self, name: str) -> float:
        calls = self.calls[name]
        return 1000.0 * self.seconds[name] / calls if calls else 0.0

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Layer figures common to every workload, per traced round."""
        seconds = {name: value / rounds for name, value in self.seconds.items()}
        calls = {name: value / rounds for name, value in self.calls.items()}
        counters = {name: value / rounds
                    for name, value in self.execute_counters.items()}
        replay_s = sum(r[2] for r in self.replays)
        instructions = sum(r[3] for r in self.replays)
        cycles = sum(r[4] for r in self.replays)
        # Host-speed probes taken from inside execute are benchmark time.
        execute_s = (seconds.get("experiments.execute", 0.0)
                     - seconds.get("benchmark.host_probe", 0.0))
        below_execute = sum(seconds.get(name, 0.0) for name in (
            "trace.record", "pipeline.replay", "storage.result_get",
            "storage.result_put", "trace.store_get", "trace.store_put",
        ))
        return {
            "pipeline.replay_s": seconds.get("pipeline.replay", 0.0),
            "pipeline.points": calls.get("pipeline.replay", 0.0),
            "pipeline.us_per_sim_inst": ratio(1e6 * replay_s, instructions),
            "pipeline.us_per_sim_cycle": ratio(1e6 * replay_s, cycles),
            "regfile.rfc_extra_us_per_inst": rfc_extra_us_per_inst(self.replays),
            "trace.record_s": seconds.get("trace.record", 0.0)
            - seconds.get("workloads.generate", 0.0),
            "trace.store_get_ms": self.per_call_ms("trace.store_get"),
            "trace.store_put_ms": self.per_call_ms("trace.store_put"),
            "trace.recorded": counters.get("traces_recorded", 0.0),
            "trace.reused": counters.get("traces_reused", 0.0),
            "workloads.generate_s": seconds.get("workloads.generate", 0.0),
            "experiments.execute_s": execute_s,
            "experiments.overhead_s": execute_s - below_execute,
            "experiments.executed": counters.get("executed", 0.0),
            "experiments.cached": counters.get("cached", 0.0),
            "experiments.shared_inflight": counters.get("shared_inflight", 0.0),
            "storage.result_get_ms": self.per_call_ms("storage.result_get"),
            "storage.result_put_ms": self.per_call_ms("storage.result_put"),
            "storage.get_calls": calls.get("storage.result_get", 0.0),
            "storage.put_calls": calls.get("storage.result_put", 0.0),
            "storage.result_hit_rate": ratio(
                self.result_hits, self.calls["storage.result_get"]
            ),
        }


def rfc_extra_us_per_inst(replays) -> float:
    """Replay µs per instruction of the RFC points minus that of the
    ``1-cycle`` point on the same trace, averaged over such traces."""
    per_trace: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for benchmark, architecture, seconds, instructions, _ in replays:
        if architecture.startswith("rfc/"):
            kind = "rfc"
        elif architecture == "1-cycle":
            kind = "base"
        else:
            continue
        entry = per_trace.setdefault((benchmark, instructions),
                                     {"rfc": [], "base": []})
        entry[kind].append(1e6 * seconds / instructions)
    extras = [
        sum(kinds["rfc"]) / len(kinds["rfc"]) - sum(kinds["base"]) / len(kinds["base"])
        for kinds in per_trace.values()
        if kinds["rfc"] and kinds["base"]
    ]
    return sum(extras) / len(extras) if extras else 0.0

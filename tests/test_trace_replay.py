"""Trace-once / replay-many: bit-identity, store behaviour, scheduler keys.

The contract of :mod:`repro.trace` is exact: a replayed point must
reproduce the live run's :class:`~repro.pipeline.stats.SimulationStats`
(including ``commit_checksum`` when a commit observer is attached) bit
for bit, for **every** register-file architecture, from one recording.
These tests lock that contract down, together with the trace store's
negative paths and the rule that replay never changes a point's
result-store key.
"""

from __future__ import annotations

import gzip
import io
import json
import os

import pytest

from repro.experiments.scheduler import (
    SimulationPoint,
    SweepEngine,
    run_simulation_point,
)
from repro.experiments.store import ResultStore
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.processor import simulate
from repro.trace import (
    TRACE_SCHEMA_VERSION,
    DecodedTrace,
    TraceStore,
    record_trace,
    replay_simulate,
    trace_key,
)
from repro.validate.differential import validation_matrix
from repro.validate.observer import CommitObserver
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

N = 2000


def _stream(benchmark: str, count: int):
    return SyntheticWorkload(get_profile(benchmark)).instructions(count)


def _workload_id(benchmark: str, count: int) -> dict:
    return {"kind": "synthetic-profile", "benchmark": benchmark,
            "instructions": count}


@pytest.fixture(scope="module")
def gcc_trace():
    config = ProcessorConfig(max_instructions=N)
    return record_trace("gcc", _stream("gcc", N), config, _workload_id("gcc", N))


class TestReplayBitIdentity:
    @pytest.mark.parametrize("name", sorted(validation_matrix()))
    def test_replay_matches_live_for_every_architecture(self, gcc_trace, name):
        factory = validation_matrix()[name]
        config = ProcessorConfig(max_instructions=N)
        live = simulate(_stream("gcc", N), factory, config, benchmark_name="gcc")
        replayed = replay_simulate(gcc_trace, factory, config, benchmark_name="gcc")
        assert replayed.to_dict() == live.to_dict()

    def test_commit_checksum_matches_live(self, gcc_trace):
        factory = validation_matrix()["rfc-non-bypass"]
        config = ProcessorConfig(max_instructions=N)
        live = simulate(_stream("gcc", N), factory, config,
                        benchmark_name="gcc", commit_observer=CommitObserver())
        replayed = replay_simulate(gcc_trace, factory, config,
                                   benchmark_name="gcc",
                                   commit_observer=CommitObserver())
        assert live.commit_checksum is not None
        assert replayed.commit_checksum == live.commit_checksum
        assert replayed.to_dict() == live.to_dict()

    def test_backend_config_shares_the_trace(self, gcc_trace):
        """Backend fields (register budget) do not enter the trace key;
        a perturbed backend replays bit-identically from the same trace."""
        factory = validation_matrix()["monolithic-2c-full-bypass"]
        config = ProcessorConfig(
            max_instructions=N, num_int_physical=48, num_fp_physical=48
        )
        assert trace_key(_workload_id("gcc", N), config) == gcc_trace.key
        live = simulate(_stream("gcc", N), factory, config, benchmark_name="gcc")
        replayed = replay_simulate(gcc_trace, factory, config, benchmark_name="gcc")
        assert replayed.to_dict() == live.to_dict()

    def test_truncated_commit_budget_with_stream_slack(self):
        """Bench-style runs stop at the commit cap with stream left over;
        the full-stream recording still replays them bit-identically."""
        count = int(N * 1.5)
        config = ProcessorConfig(max_instructions=N)
        trace = record_trace("swim", _stream("swim", count), config,
                             _workload_id("swim", count))
        for name in ("monolithic-1c", "banked-4x2r2w", "rfc-ready"):
            factory = validation_matrix()[name]
            live = simulate(_stream("swim", count), factory, config,
                            benchmark_name="swim")
            replayed = replay_simulate(trace, factory, config,
                                       benchmark_name="swim")
            assert replayed.to_dict() == live.to_dict(), name

    def test_frontend_config_changes_the_key(self):
        config = ProcessorConfig(max_instructions=N)
        narrow = config.with_overrides(fetch_width=4)
        assert (trace_key(_workload_id("gcc", N), config)
                != trace_key(_workload_id("gcc", N), narrow))

    def test_sequential_replays_of_one_trace(self, gcc_trace):
        """Replayers share prebuilt groups; back-to-back runs must not
        contaminate each other."""
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=N)
        first = replay_simulate(gcc_trace, factory, config)
        second = replay_simulate(gcc_trace, factory, config)
        assert first.to_dict() == second.to_dict()


class TestTraceStore:
    def test_round_trip_through_disk(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        fresh = TraceStore(str(tmp_path))
        loaded = fresh.get(gcc_trace.key)
        assert loaded is not None
        assert loaded.to_payload() == gcc_trace.to_payload()
        factory = validation_matrix()["rfc-always-demand"]
        config = ProcessorConfig(max_instructions=N)
        assert (replay_simulate(loaded, factory, config).to_dict()
                == replay_simulate(gcc_trace, factory, config).to_dict())

    def test_level_9_blob_is_still_served(self, gcc_trace, tmp_path):
        """Blobs written at ``GzipFile``'s default level 9, as stores did
        before the level was lowered, decode as before."""
        store = TraceStore(str(tmp_path))
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(gcc_trace.to_payload()).encode("utf-8"))
        store._disk.put(gcc_trace.key, buffer.getvalue())
        loaded = TraceStore(str(tmp_path)).get(gcc_trace.key)
        assert loaded is not None
        assert loaded.to_payload() == gcc_trace.to_payload()

    def test_puts_compress_at_level_6(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        store.put_payload("f" * 64, {"kind": "checkpoint"})
        raw = json.dumps(gcc_trace.to_payload()).encode("utf-8")
        assert store._disk.get(gcc_trace.key) == gzip.compress(
            raw, compresslevel=6, mtime=0
        )
        assert store._disk.get("f" * 64) == gzip.compress(
            json.dumps({"kind": "checkpoint"}).encode("utf-8"),
            compresslevel=6, mtime=0,
        )

    def test_memory_tier_returns_same_object(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace
        assert store.counters()["memory_hits"] == 1

    @staticmethod
    def _segment_files(trace_dir):
        return [
            os.path.join(root, name)
            for root, _, names in os.walk(trace_dir)
            for name in names
            if name.startswith("seg-") and name.endswith(".log")
        ]

    def test_schema_mismatch_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        payload = gcc_trace.to_payload()
        payload["schema"] = TRACE_SCHEMA_VERSION + 1
        store._disk.put(gcc_trace.key,
                        gzip.compress(json.dumps(payload).encode("utf-8")))
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_corrupt_segment_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        segments = self._segment_files(store.trace_dir)
        assert segments, "trace store wrote no segment files"
        for path in segments:
            with open(path, "wb") as handle:
                handle.write(b"not a segment record at all")
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_truncated_segment_is_a_miss(self, gcc_trace, tmp_path):
        """A torn tail (writer killed mid-append) reads as a miss."""
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        for path in self._segment_files(store.trace_dir):
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[: len(blob) // 2])
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_truncated_gzip_payload_is_a_miss(self, gcc_trace, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put(gcc_trace)
        raw = store._disk.get(gcc_trace.key)
        store._disk.put(gcc_trace.key, raw[: len(raw) // 2])
        assert TraceStore(str(tmp_path)).get(gcc_trace.key) is None

    def test_key_mismatch_is_a_miss(self, gcc_trace, tmp_path):
        """A trace stored under the wrong filename must not be served."""
        store = TraceStore(str(tmp_path))
        payload = gcc_trace.to_payload()
        wrong_key = "0" * 64
        with gzip.open(os.path.join(store.trace_dir, f"{wrong_key}.json.gz"),
                       "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert TraceStore(str(tmp_path)).get(wrong_key) is None

    def test_malformed_payload_rejected(self):
        with pytest.raises(Exception):
            DecodedTrace.from_payload({"schema": TRACE_SCHEMA_VERSION})

    def test_event_coverage_validated(self, gcc_trace):
        payload = gcc_trace.to_payload()
        payload["events"] = payload["events"][:-1]
        with pytest.raises(Exception):
            DecodedTrace.from_payload(payload)

    def test_memory_only_store(self, gcc_trace):
        store = TraceStore(None)
        store.put(gcc_trace)
        assert store.get(gcc_trace.key) is gcc_trace


class TestCacheDirCoexistence:
    """One ``--cache-dir`` serves results and traces without collision."""

    def test_result_and_trace_stores_share_a_directory(self, tmp_path):
        cache_dir = str(tmp_path)
        results = ResultStore(cache_dir=cache_dir)
        factory = validation_matrix()["monolithic-1c"]
        config = ProcessorConfig(max_instructions=500)
        point = SimulationPoint(benchmark="gcc", factory=factory,
                                architecture="mono-1c", config=config)
        SweepEngine(store=results, jobs=1).execute([point])

        # Results live in segment logs under results/, traces under
        # traces/; a fresh ResultStore must not mistake the trace for a
        # result and a fresh TraceStore must not see the result payload.
        def segment_files(subdir):
            return [
                os.path.join(root, name)
                for root, _, names in os.walk(os.path.join(cache_dir, subdir))
                for name in names
                if name.startswith("seg-") and name.endswith(".log")
            ]

        assert segment_files("results"), "result segments missing"
        assert segment_files("traces"), "trace segments missing"

        fresh_results = ResultStore(cache_dir=cache_dir)
        assert fresh_results.peek(point.store_key()) is not None
        fresh_traces = TraceStore(cache_dir)
        assert fresh_traces.get(point.trace_key()) is not None
        # A result key can never resolve in the trace store and vice versa.
        assert fresh_traces.get(point.store_key()) is None
        assert fresh_results.peek(point.trace_key()) is None


class TestReplayIsNotAConfigField:
    """Replay is an execution strategy: result keys must not change."""

    def _points(self):
        config = ProcessorConfig(max_instructions=800)
        return [
            SimulationPoint(benchmark="gcc", factory=factory,
                            architecture=name, config=config)
            for name, factory in list(validation_matrix().items())[:4]
        ]

    @staticmethod
    def _live_store(points, cache_dir=None):
        """A store holding every point's live run under its store key."""
        store = ResultStore(cache_dir=cache_dir)
        for point in points:
            store.put(point.store_key(), run_simulation_point(point),
                      metadata=point.metadata())
        return store

    def test_replayed_and_live_runs_share_result_keys(self, tmp_path):
        summary = SweepEngine(store=ResultStore(), jobs=1).execute(self._points())
        assert summary["executed"] == 4
        assert summary["traces_recorded"] == 1

        # The engine must find every live result under the key it would
        # have stored its replayed result at, on disk as in memory.
        cache_dir = str(tmp_path)
        self._live_store(self._points(), cache_dir)
        summary = SweepEngine(store=ResultStore(cache_dir=cache_dir),
                              jobs=1).execute(self._points())
        assert summary["executed"] == 0
        assert summary["cached"] == 4

    def test_replayed_results_equal_live_results(self):
        replay_store = ResultStore()
        points = self._points()
        SweepEngine(store=replay_store, jobs=1).execute(points)
        live_store = self._live_store(points)
        for point in points:
            key = point.store_key()
            assert (replay_store.get(key).to_dict()
                    == live_store.get(key).to_dict()), point.architecture

    def test_recording_harvest_matches_live(self):
        """The recording run doubles as the first point's result; it must
        equal that point's live run exactly."""
        config = ProcessorConfig(max_instructions=800)
        factory = validation_matrix()["rfc-non-bypass"]
        point = SimulationPoint(benchmark="swim", factory=factory,
                                architecture="rfc", config=config)
        from repro.experiments.scheduler import record_point_trace

        _, harvested = record_point_trace(point)
        assert harvested is not None
        live = run_simulation_point(point)
        assert harvested.to_dict() == live.to_dict()

    def test_parallel_batched_replay_matches_serial(self, tmp_path):
        """The warm-worker path (record task + trace batches) produces the
        same results as the serial path, with traces shipped via disk."""
        from repro.experiments.scheduler import shutdown_pool

        points = self._points()
        serial_store = ResultStore()
        SweepEngine(store=serial_store, jobs=1).execute(points)
        parallel_store = ResultStore(cache_dir=str(tmp_path))
        try:
            summary = SweepEngine(store=parallel_store, jobs=2).execute(points)
        finally:
            shutdown_pool()
        assert summary["executed"] == 4
        for point in points:
            key = point.store_key()
            assert (parallel_store.get(key).to_dict()
                    == serial_store.get(key).to_dict()), point.architecture

    def test_occupancy_point_is_harvested_and_replays(self):
        config = ProcessorConfig(max_instructions=600, collect_occupancy=True)
        factory = validation_matrix()["monolithic-1c"]
        point = SimulationPoint(benchmark="gcc", factory=factory,
                                architecture="mono", config=config)
        from repro.experiments.scheduler import record_point_trace

        trace, harvested = record_point_trace(point)
        live = run_simulation_point(point)
        replayed = run_simulation_point(point, trace)
        assert harvested.to_dict() == live.to_dict() == replayed.to_dict()
        assert harvested.occupancy_needed  # the distribution was collected


class TestPrefixRecording:
    """A group's trace is recorded only as far as its replays can fetch.

    The points below commit 600 instructions of a 2000-instruction
    stream (the rest is warm-up slack), so their reach — and their
    recording — stops well short of the stream end.
    """

    @staticmethod
    def _point(name="monolithic-1c", sampling=None, profile="gcc", **overrides):
        config = ProcessorConfig(max_instructions=600).with_overrides(**overrides)
        return SimulationPoint(
            benchmark=profile, factory=validation_matrix()[name],
            architecture=name, config=config, warmup_instructions=N - 600,
            sampling=sampling,
        )

    @pytest.fixture(scope="class")
    def prefix_trace(self):
        from repro.experiments.scheduler import record_point_trace

        trace, stats = record_point_trace(self._point())
        # The point's run stopped before the recording did; its result
        # is the one it had at that cycle.
        assert stats.to_dict() == run_simulation_point(self._point()).to_dict()
        return trace

    def test_reach_bounds_the_recording(self, prefix_trace, gcc_trace):
        reach = self._point().trace_reach()
        assert reach == 600 + 128 + 16 + 8
        assert prefix_trace.key == gcc_trace.key
        assert not prefix_trace.complete and gcc_trace.complete
        assert reach < len(prefix_trace) < N
        # The prefix is bit-identical to the head of the full recording.
        events = prefix_trace.events
        assert events == gcc_trace.events[:len(events)]
        assert (prefix_trace.instructions
                == gcc_trace.instructions[:len(prefix_trace)])

    @pytest.mark.parametrize("name", sorted(validation_matrix()))
    def test_prefix_replay_matches_full_replay(self, prefix_trace, gcc_trace,
                                               name):
        point = self._point(name)
        from_prefix = run_simulation_point(point, prefix_trace)
        from_full = run_simulation_point(point, gcc_trace)
        assert from_prefix.to_dict() == from_full.to_dict()
        assert from_prefix.fetched_instructions <= point.trace_reach()

    def test_replay_past_an_incomplete_trace_raises(self, prefix_trace):
        from repro.errors import SimulationError

        config = ProcessorConfig(max_instructions=N)
        with pytest.raises(SimulationError, match="prefix trace"):
            replay_simulate(prefix_trace, validation_matrix()["monolithic-1c"],
                            config)

    def test_sampled_and_harvest_points_record_the_whole_stream(self):
        from repro.sampling.spec import SamplingSpec

        sampled = self._point(sampling=SamplingSpec(stride=500, window=100))
        assert sampled.trace_reach() == N
        harvest = SimulationPoint(
            benchmark="gcc", factory=validation_matrix()["rfc-ready"],
            architecture="rfc-ready", config=ProcessorConfig(max_instructions=N),
        )
        assert harvest.trace_reach() == N

    def test_zero_warmup_harvest_returns_live_stats(self):
        from repro.experiments.scheduler import record_point_trace

        point = SimulationPoint(
            benchmark="swim", factory=validation_matrix()["rfc-ready"],
            architecture="rfc-ready", config=ProcessorConfig(max_instructions=700),
        )
        trace, harvested = record_point_trace(point)
        assert trace.complete
        assert harvested is not None
        assert harvested.to_dict() == run_simulation_point(point).to_dict()

    def _assert_live(self, store, points):
        for point in points:
            live = run_simulation_point(point)
            assert store.get(point.store_key()).to_dict() == live.to_dict()

    def test_larger_rob_rerecords_a_stored_prefix(self):
        traces = TraceStore(None)
        small = self._point()
        first = SweepEngine(trace_store=traces).execute([small])
        assert first["traces_recorded"] == 1
        stored = traces.get(small.trace_key())
        assert not stored.serves(self._point(rob_size=512).trace_reach())

        large = self._point("rfc-non-bypass", rob_size=512)
        assert large.trace_key() == small.trace_key()
        store = ResultStore()
        summary = SweepEngine(store=store, trace_store=traces).execute([large])
        assert summary["traces_recorded"] == 1
        assert summary["traces_reused"] == 0
        assert traces.get(large.trace_key()).serves(large.trace_reach())
        self._assert_live(store, [large])

        # The longer trace now serves the small point's group as well.
        again = SweepEngine(trace_store=traces).execute(
            [self._point("banked-4x2r2w")]
        )
        assert again["traces_reused"] == 1

    def test_sampled_point_rerecords_a_stored_prefix(self):
        from repro.sampling.spec import SamplingSpec

        traces = TraceStore(None)
        SweepEngine(trace_store=traces).execute([self._point()])
        sampled = self._point(sampling=SamplingSpec(stride=500, window=100))
        store = ResultStore()
        summary = SweepEngine(store=store, trace_store=traces).execute([sampled])
        assert summary["traces_recorded"] == 1
        assert traces.get(sampled.trace_key()).complete
        self._assert_live(store, [sampled])

    def test_worker_cache_and_disk_fallback_rerecord_short_prefixes(
        self, prefix_trace, tmp_path
    ):
        from repro.experiments import scheduler

        large = self._point(rob_size=512)
        key = large.trace_key()
        saved = dict(scheduler._WORKER_TRACES)
        try:
            scheduler._WORKER_TRACES.clear()
            scheduler._WORKER_TRACES[key] = prefix_trace
            cached, _ = scheduler._worker_trace(key, None, None, [large])
            assert cached.serves(large.trace_reach())

            scheduler._WORKER_TRACES.clear()
            TraceStore(str(tmp_path)).put(prefix_trace)
            loaded, _ = scheduler._worker_trace(key, None, str(tmp_path),
                                                [large])
            assert loaded.serves(large.trace_reach())
            assert scheduler._WORKER_TRACES[key] is loaded
        finally:
            scheduler._WORKER_TRACES.clear()
            scheduler._WORKER_TRACES.update(saved)

    @pytest.mark.parametrize("on_disk", [True, False])
    def test_parallel_prefix_replay_matches_serial(self, tmp_path, on_disk):
        from repro.experiments.scheduler import shutdown_pool

        points = [self._point(name) for name in sorted(validation_matrix())[:3]]
        points.append(self._point("rfc-ready", rob_size=256))
        points.append(SimulationPoint(
            benchmark="swim", factory=validation_matrix()["monolithic-1c"],
            architecture="monolithic-1c",
            config=ProcessorConfig(max_instructions=500),
            warmup_instructions=1500,
        ))
        serial_store = ResultStore()
        SweepEngine(store=serial_store, jobs=1).execute(points)
        parallel_store = ResultStore(cache_dir=str(tmp_path) if on_disk else None)
        try:
            summary = SweepEngine(store=parallel_store, jobs=2).execute(points)
        finally:
            shutdown_pool()
        assert summary["executed"] == len(points)
        assert summary["traces_recorded"] == 2
        for point in points:
            key = point.store_key()
            assert (parallel_store.get(key).to_dict()
                    == serial_store.get(key).to_dict()), point.architecture


class TestHarvest:
    """The recording run doubles as its group's first exact point.

    The points commit 600 instructions of a 2000-instruction stream, so
    the recorder runs each point unchanged until it stops, keeps its
    statistics, and then continues the same processor until the trace
    covers the group's reach.
    """

    _point = staticmethod(TestPrefixRecording._point)

    @pytest.mark.parametrize("occupancy", [False, True])
    @pytest.mark.parametrize("name", sorted(validation_matrix()))
    def test_harvest_equals_live_and_replay(self, name, occupancy):
        from repro.experiments.scheduler import record_point_trace

        point = self._point(name, collect_occupancy=occupancy)
        trace, harvested = record_point_trace(point)
        live = run_simulation_point(point)
        replayed = run_simulation_point(point, trace)
        assert harvested.to_dict() == live.to_dict() == replayed.to_dict()
        assert bool(harvested.occupancy_needed) == occupancy

    @pytest.fixture(scope="class")
    def canonical_traces(self):
        """Canonical 1-cycle recordings at a reach past every point's own."""
        from repro.trace.recorder import record_trace_with_stats

        traces = {}
        for profile in ("gcc", "swim"):
            point = self._point(profile=profile)
            reach = point.trace_reach() + 300
            traces[profile] = record_trace_with_stats(
                profile, _stream(profile, N), point.config,
                point.workload_identity(), reach=reach,
            )[0]
        return traces

    @pytest.mark.parametrize("profile", ["gcc", "swim"])
    @pytest.mark.parametrize("name", sorted(validation_matrix()))
    def test_harvested_trace_equals_canonical(self, canonical_traces, name,
                                              profile):
        from repro.experiments.scheduler import record_point_trace

        point = self._point(name, profile=profile)
        reach = point.trace_reach() + 300
        trace, harvested = record_point_trace(point, reach)
        assert harvested is not None
        canonical = canonical_traces[profile]
        assert trace.key == canonical.key
        assert trace.events == canonical.events
        assert trace.instructions == canonical.instructions

    @staticmethod
    def _count_processors(monkeypatch):
        from repro.pipeline.processor import Processor

        built = []
        init = Processor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Processor, "__init__", counting_init)
        return built

    def test_cold_point_is_simulated_once(self, monkeypatch):
        point = self._point("rfc-non-bypass")
        built = self._count_processors(monkeypatch)
        store = ResultStore()
        summary = SweepEngine(store=store, jobs=1).execute([point])
        assert summary["executed"] == 1 and summary["traces_recorded"] == 1
        assert len(built) == 1
        monkeypatch.undo()
        assert (store.get(point.store_key()).to_dict()
                == run_simulation_point(point).to_dict())

    def test_worker_rerecord_harvests_the_first_point(self, monkeypatch,
                                                      tmp_path):
        from repro.experiments import scheduler

        points = tuple(self._point(name)
                       for name in sorted(validation_matrix())[:3])
        batch = scheduler._TraceBatch(
            points=points, trace_key=points[0].trace_key(), payload=None,
            cache_dir=str(tmp_path),
        )
        saved = dict(scheduler._WORKER_TRACES)
        try:
            scheduler._WORKER_TRACES.clear()
            built = self._count_processors(monkeypatch)
            results = scheduler._batch_remote(batch)
            assert len(built) == len(points)
        finally:
            monkeypatch.undo()
            scheduler._WORKER_TRACES.clear()
            scheduler._WORKER_TRACES.update(saved)
        assert results == [run_simulation_point(point).to_dict()
                           for point in points]

"""The ``service-rw`` workload: a writer and a reader against a live service.

One in-process :class:`ServiceApp` (disk cache dir, jobs=1,
job_concurrency=1) runs behind the real HTTP server.  Two closed-loop
client threads drive it in rounds:

* the **writer** submits new single-point ``points`` jobs from a seeded
  sequence; each records a trace, replays the point and appends it to
  the store;
* the **reader** resubmits jobs the writer completed before the round
  began (result-store reads), chosen by seed, after a seeded think time.

A round ends when both have finished their jobs.  Completion is found by
polling ``status`` every :data:`POLL_S` seconds, never by ``watch``.
The host speed is probed between rounds, while the service is idle, and
each round's times are scaled to reference host speed (hostspeed.py).
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from typing import Dict, List, Tuple

from common import WORK_DIR, mean, median, ratio, result_digest, simulated_counts
from hostspeed import HostSpeed
from probes import LayerProbes
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import build_server
from repro.service.spec import validate_submission
from repro.workloads.spec_suites import SPEC95

#: Fixed status-poll interval, seconds.
POLL_S = 0.005
#: A job not completed this long after submission counts as failed.
JOB_TIMEOUT_S = 60.0
#: Jobs per client per round.
WRITER_JOBS = 6
READER_JOBS = 6
#: Upper end of the reader's seeded think time between jobs, seconds.  It
#: spreads reader arrivals over the writer's jobs; without it the two
#: loops lock into phase and the warm latencies jump between two values.
READER_THINK_S = 0.05
#: Writer jobs run before timing so the reader has completed jobs to read.
PRIMING_JOBS = 3
#: Warm-up stream ahead of each writer point's committed instructions.
WRITER_WARMUP = 500

#: (label, factory) of the writer's register files.
ARCHITECTURES = (
    ("1-cycle", {"type": "SingleBankedFactory",
                 "parameters": {"latency": 1, "bypass_levels": 1}}),
    ("rfc", {"type": "RegisterFileCacheFactory", "parameters": {}}),
    ("2-cycle-1byp", {"type": "SingleBankedFactory",
                      "parameters": {"latency": 2, "bypass_levels": 1}}),
)
#: Instruction budgets per (benchmark, architecture); each budget is
#: unique per benchmark, so every writer job records a trace of its own.
BUDGETS = 12


def universe() -> List[dict]:
    """Every single-point job spec the writer can submit."""
    specs = []
    for benchmark in SPEC95:
        for index, (label, factory) in enumerate(ARCHITECTURES):
            for step in range(BUDGETS):
                instructions = 600 + len(ARCHITECTURES) * step + index
                specs.append({"points": [{
                    "benchmark": benchmark,
                    "architecture": f"{label}/{instructions}",
                    "factory": factory,
                    "config": {"max_instructions": instructions},
                    "warmup_instructions": WRITER_WARMUP,
                }]})
    return specs


def spec_key(spec: dict) -> str:
    """Store key of a single-point job spec."""
    return validate_submission(spec).points[0].store_key()


def writer_sequence(seed: int) -> List[dict]:
    specs = universe()
    random.Random(f"service-rw:writer:{seed}").shuffle(specs)
    return specs


class Job:
    """Client-side record of one job."""

    __slots__ = ("kind", "key", "job_id", "latency", "scaled", "submit_s",
                 "status_s", "result_s", "polls", "reverts", "ok")

    def __init__(self, kind: str, key: str) -> None:
        self.kind = kind
        self.key = key
        self.job_id = ""
        #: Client-side latency as measured, and at reference host speed.
        self.latency = self.scaled = 0.0
        self.submit_s = self.status_s = self.result_s = 0.0
        self.polls = 0
        #: Result fetches refused as "not completed" after a status read
        #: had reported the job completed.
        self.reverts = 0
        self.ok = False


class ServiceRun:
    """Boots the service, runs rounds, checks every result digest."""

    def __init__(self, seed: int, expected: Dict[str, str]) -> None:
        self.seed = seed
        self.expected = expected
        self.sequence = writer_sequence(seed)
        self.position = 0
        self.completed: List[Tuple[dict, str]] = []
        self.jobs: List[Job] = []
        self.rounds = 0
        self.host = HostSpeed()
        #: Round walls at reference host speed, and as measured.
        self.round_walls: List[float] = []
        self.raw_walls: List[float] = []
        self.event_cursor = 0
        self.cache_dir = os.path.join(WORK_DIR, f"service-{os.getpid()}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.app = ServiceApp(cache_dir=self.cache_dir, jobs=1, job_concurrency=1)
        self.server = build_server(self.app, port=0)
        self._serve = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-http", daemon=True)
        self._serve.start()
        self.app.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        ServiceClient(self.url).health()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._serve.join(timeout=10)
        self.app.stop(drain=True, timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run in this checkout still uses it

    # ------------------------------------------------------------------

    def _next_writer_specs(self, count: int) -> List[dict]:
        specs = self.sequence[self.position:self.position + count]
        self.position += count
        return specs

    def _run_job(self, client: ServiceClient, kind: str, spec: dict,
                 key: str) -> Job:
        job = Job(kind, key)
        started = time.perf_counter()
        try:
            result = self._complete(client, job, spec, started)
        except ServiceError:
            result = None
        job.latency = time.perf_counter() - started
        job.ok = (result is not None
                  and result_digest(result["result"]) == self.expected.get(key))
        return job

    def _complete(self, client: ServiceClient, job: Job, spec: dict,
                  started: float):
        """Submit, poll until the result can be fetched; ``None`` if the
        job fails or does not complete within :data:`JOB_TIMEOUT_S`."""
        record = client.submit(spec)
        job.submit_s = time.perf_counter() - started
        job.job_id = record["id"]
        state = record.get("state")
        while time.perf_counter() - started < JOB_TIMEOUT_S:
            if state == "failed":
                return None
            if state == "completed":
                fetched = time.perf_counter()
                try:
                    result = client.result(job.job_id)
                except ServiceError as error:
                    if error.code != "job_not_completed":
                        raise
                    # The service reported the job completed, then not:
                    # see "reverts" in README.md.  Keep polling.
                    job.reverts += 1
                else:
                    job.result_s = time.perf_counter() - fetched
                    return result
            time.sleep(POLL_S)
            polled = time.perf_counter()
            state = client.status(job.job_id).get("state")
            job.status_s += time.perf_counter() - polled
            job.polls += 1
        return None

    def _client_loop(self, kind: str, work: List[Tuple[dict, str, float]],
                     out: List[Job]) -> None:
        client = ServiceClient(self.url)
        for spec, key, think_s in work:
            time.sleep(think_s)
            out.append(self._run_job(client, kind, spec, key))

    def prime(self) -> None:
        """Untimed: complete a few writer jobs so the reader has work."""
        work = [(spec, spec_key(spec), 0.0)
                for spec in self._next_writer_specs(PRIMING_JOBS)]
        primed: List[Job] = []
        self._client_loop("prime", work, primed)
        self._account(primed, work)

    def _account(self, jobs: List[Job], writer_work) -> None:
        self.jobs.extend(jobs)
        done = {job.key for job in jobs if job.ok}
        self.completed.extend(
            (spec, key) for spec, key, _ in writer_work if key in done
        )

    def round(self) -> List[Job]:
        """One round of writer and reader jobs; returns its jobs."""
        writer_work = [(spec, spec_key(spec), 0.0)
                       for spec in self._next_writer_specs(WRITER_JOBS)]
        rng = random.Random(f"service-rw:reader:{self.seed}:{self.rounds}")
        reader_work = [(*rng.choice(self.completed), rng.uniform(0, READER_THINK_S))
                       for _ in range(READER_JOBS)]
        writer_jobs: List[Job] = []
        reader_jobs: List[Job] = []
        threads = [
            threading.Thread(target=self._client_loop,
                             args=("cold", writer_work, writer_jobs)),
            threading.Thread(target=self._client_loop,
                             args=("warm", reader_work, reader_jobs)),
        ]
        before = self.host.probe()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = self.host.probe()
        self.rounds += 1
        self.raw_walls.append(wall)
        self.round_walls.append(self.host.scale(wall, before, after))
        jobs = writer_jobs + reader_jobs
        for job in jobs:
            job.scaled = self.host.scale(job.latency, before, after)
        self._account(jobs, writer_work)
        return jobs

    # ------------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if not job.ok)

    def end_to_end(self) -> Dict[str, object]:
        timed = [job for job in self.jobs if job.kind != "prime"]
        cold = [job.scaled for job in timed if job.kind == "cold"]
        seconds = sum(self.round_walls)
        instructions = sum(
            self.app.store.peek(job.key).committed_instructions
            for job in timed if job.kind == "cold" and job.ok
        )
        return {
            "raw_wall_s": mean(self.raw_walls),
            "wall_s": mean(self.round_walls),
            "sim_kips": instructions / seconds / 1000.0,
            "cold": cold,
            "warm": [job.scaled for job in timed if job.kind == "warm"],
            "jobs_per_s": len(timed) / seconds,
        }

    def read_spans(self) -> Dict[str, Dict[str, float]]:
        """Server span durations by job id, from ``GET /events``.

        Groups ``span_end`` events by ``job_id`` and span name, as
        ``ServiceClient.job_span_breakdown`` does, but reads the stream
        once from a cursor: each stream read ends on the server's idle
        keepalive, which costs a second per read.
        """
        spans: Dict[str, Dict[str, float]] = {}
        client = ServiceClient(self.url)
        for event in client.events(since=self.event_cursor, stop_on_idle=True):
            self.event_cursor = max(self.event_cursor, int(event.get("seq", 0)))
            job_id, name = event.get("job_id"), event.get("span")
            duration = event.get("duration_s")
            if (event.get("kind") == "span_end" and job_id
                    and isinstance(duration, (int, float))):
                per_job = spans.setdefault(job_id, {})
                per_job[name] = per_job.get(name, 0.0) + float(duration)
        return spans

    def layers(self, probes: LayerProbes, traced_jobs: List[Job],
               spans: Dict[str, Dict[str, float]], rounds: int,
               bytes_written: float) -> Dict[str, float]:
        """Per-layer figures of the traced rounds."""
        queue_waits: List[float] = []
        lease_holds: List[float] = []
        unattributed: List[float] = []
        for job in traced_jobs:
            breakdown = spans.get(job.job_id, {})
            queue_wait = breakdown.get("queue.wait", 0.0)
            lease_hold = breakdown.get("lease.hold", 0.0)
            queue_waits.append(queue_wait)
            lease_holds.append(lease_hold)
            unattributed.append(job.latency - queue_wait - lease_hold)
        executed = [job for job in traced_jobs if job.kind == "cold"]
        simulate_s = probes.seconds["trace.record"] + probes.seconds["pipeline.replay"]
        values = probes.metrics(rounds)
        values.update({
            "storage.bytes_written": bytes_written / rounds,
            "service.submit_ms": 1000.0 * mean([j.submit_s for j in traced_jobs]),
            "service.status_ms": 1000.0 * ratio(
                sum(j.status_s for j in traced_jobs),
                sum(j.polls for j in traced_jobs),
            ),
            "service.result_ms": 1000.0 * mean([j.result_s for j in traced_jobs]),
            "service.polls_per_job": mean([j.polls for j in traced_jobs]),
            "service.completed_reverts": sum(j.reverts for j in traced_jobs) / rounds,
            "service.queue_wait_ms": 1000.0 * mean(queue_waits),
            "service.lease_hold_ms": 1000.0 * mean(lease_holds),
            "service.point_simulate_ms": 1000.0 * ratio(simulate_s, len(executed)),
            "service.unattributed_ms": 1000.0 * median(unattributed),
            "run.unattributed_frac": median(
                [u / j.latency for u, j in zip(unattributed, traced_jobs)]
            ),
        })
        first_round = [job for job in traced_jobs if job.kind == "cold"][:WRITER_JOBS]
        values.update(simulated_counts(
            [self.app.store.peek(job.key).to_dict() for job in first_round if job.ok]
        ))
        return values


def results_bytes(cache_dir: str) -> int:
    """Bytes held by the result store's segment logs."""
    total = 0
    for directory, _, files in os.walk(os.path.join(cache_dir, "results")):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


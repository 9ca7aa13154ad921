"""The repository benchmark: one command per workload, outputs checked.

Usage, from the checkout root::

    python3 perfbench/run.py --workload sweep-int-rfc --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` interleaves
untraced and traced rounds and prints every per-layer metric instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    load_expected,
    mean,
    median,
    metric,
    peak_rss_mb,
    percentile,
    use_checkout_source,
)
from hostspeed import HostSpeed

WORKLOADS = ("sweep-int-rfc", "sweep-fp-mono", "service-rw")

#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_TRIALS = 5
#: Samples a run collects per latency distribution, so that p90 has at
#: least ten samples beyond it.  ``peak_rss_mb`` is the peak memory up to
#: the round that reaches them, so that it covers the same work in every
#: run; the service's memory grows with every job it has served.
MIN_LATENCY_SAMPLES = 100
#: Traced runs need this many traced (and untraced) rounds.
MIN_TRACED_ROUNDS = 2

#: Per-layer metrics a workload never exercises are printed as 0.
SERVICE_METRICS = (
    "service.submit_ms", "service.status_ms", "service.result_ms",
    "service.polls_per_job", "service.completed_reverts",
    "service.queue_wait_ms", "service.lease_hold_ms",
    "service.point_simulate_ms", "service.unattributed_ms",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def set_up(workload: str, seed: int, expected: dict):
    """Import the program and make the workload ready for its first request."""
    if workload == "service-rw":
        import service_rw

        return service_rw.ServiceRun(seed, expected["results"])
    import sweeps

    return sweeps.SweepRun(sweeps.seeded_plan(workload, seed), expected["points"],
                           seed)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start until ready, over fresh processes,
    as ``(at reference host speed, as measured)`` pairs."""
    command = [sys.executable, os.path.join(BENCH_DIR, "setup_trial.py"),
               workload, str(seed)]
    samples = []
    for _ in range(SETUP_TRIALS):
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            child.stdout.read()
        finally:
            child.stdout.close()
            status = child.wait(timeout=60)
        fields = line.split()
        if status != 0 or len(fields) != 3 or fields[0] != "ready":
            raise SystemExit(f"perfbench: set-up trial failed (exit {status})")
        probes = [float(value) for value in fields[1:]]
        samples.append((HostSpeed.scale(ready, *probes), ready))
    return samples


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def overhead_ratio(scaled_walls: list, traced_rounds: list) -> float:
    """Median traced over median untraced round wall, at reference speed."""
    traced = [w for w, flag in zip(scaled_walls, traced_rounds) if flag]
    untraced = [w for w, flag in zip(scaled_walls, traced_rounds) if not flag]
    return median(traced) / median(untraced)


def run_sweep(run, seconds: float, traced: bool):
    from probes import LayerProbes

    probes = LayerProbes() if traced else None
    traced_rounds = []
    traced_walls = []
    rss_mb = None
    started = time.perf_counter()

    def short_of_samples() -> bool:
        return len(run.cold_latencies) < MIN_LATENCY_SAMPLES

    while (time.perf_counter() - started < seconds or short_of_samples()
           or traced and sum(traced_rounds) < MIN_TRACED_ROUNDS):
        use_probes = traced and len(traced_rounds) % 2 == 1
        if use_probes:
            probes.install()
        try:
            wall = run.round(probes if use_probes else None)
        finally:
            if use_probes:
                probes.remove()
        traced_rounds.append(use_probes)
        if use_probes:
            traced_walls.append(wall)
        if rss_mb is None and not short_of_samples():
            rss_mb = peak_rss_mb()
    if not traced:
        return dict(run.end_to_end(), peak_rss_mb=rss_mb)
    layers = run.layers(probes, len(traced_walls))
    layers["run.unattributed_frac"] = (
        1.0 - layers["experiments.execute_s"] / mean(traced_walls)
    )
    layers["run.trace_overhead_ratio"] = overhead_ratio(run.cold_walls, traced_rounds)
    for name in SERVICE_METRICS:
        layers[name] = 0.0
    return layers


def run_service(run, seconds: float, traced: bool):
    from probes import LayerProbes
    from service_rw import results_bytes

    probes = LayerProbes() if traced else None
    traced_rounds = []
    traced_jobs = []
    spans = {}
    bytes_written = 0
    rss_mb = None
    run.prime()
    started = time.perf_counter()

    def short_of_samples() -> bool:
        kinds = [job.kind for job in run.jobs]
        return min(kinds.count("cold"), kinds.count("warm")) < MIN_LATENCY_SAMPLES

    while (time.perf_counter() - started < seconds or short_of_samples()
           or traced and sum(traced_rounds) < MIN_TRACED_ROUNDS):
        use_probes = traced and len(traced_rounds) % 2 == 1
        if use_probes:
            probes.install()
            probes.watch_stores(run.app.store, run.app.trace_store)
            probes.watch_execute(run.app.engine)
            before = results_bytes(run.cache_dir)
        try:
            jobs = run.round()
        finally:
            if use_probes:
                probes.remove()
        traced_rounds.append(use_probes)
        if use_probes:
            bytes_written += results_bytes(run.cache_dir) - before
            traced_jobs.extend(jobs)
            spans.update(run.read_spans())
        if rss_mb is None and not short_of_samples():
            rss_mb = peak_rss_mb()
    if not traced:
        return dict(run.end_to_end(), peak_rss_mb=rss_mb)
    layers = run.layers(probes, traced_jobs, spans, sum(traced_rounds),
                        bytes_written)
    layers["run.trace_overhead_ratio"] = overhead_ratio(run.round_walls, traced_rounds)
    return layers


def end_to_end_metrics(values: dict, setup: list) -> dict:
    cold, warm = values["cold"], values["warm"]
    return {
        "setup_s": metric(median([scaled for scaled, _ in setup]), "s"),
        "wall_s": metric(values["wall_s"], "s"),
        "sim_kips": metric(values["sim_kips"], "kinst/s"),
        "cold_job_p50_ms": metric(1000.0 * percentile(cold, 50), "ms"),
        "cold_job_p90_ms": metric(1000.0 * percentile(cold, 90), "ms"),
        "warm_job_p50_ms": metric(1000.0 * percentile(warm, 50), "ms"),
        "warm_job_p90_ms": metric(1000.0 * percentile(warm, 90), "ms"),
        "jobs_per_s": metric(values["jobs_per_s"], "jobs/s"),
        "peak_rss_mb": metric(values["peak_rss_mb"], "MB"),
    }


#: Units of the per-layer metrics that are not counts.
LAYER_UNITS = {
    "pipeline.replay_s": "s", "pipeline.points": "count",
    "pipeline.us_per_sim_inst": "us/inst", "pipeline.us_per_sim_cycle": "us/cycle",
    "regfile.rfc_extra_us_per_inst": "us/inst", "trace.record_s": "s",
    "trace.store_get_ms": "ms", "trace.store_put_ms": "ms",
    "workloads.generate_s": "s", "experiments.execute_s": "s",
    "experiments.overhead_s": "s", "storage.result_get_ms": "ms",
    "storage.result_put_ms": "ms", "storage.bytes_written": "bytes",
    "storage.result_hit_rate": "fraction", "service.submit_ms": "ms",
    "service.status_ms": "ms", "service.result_ms": "ms",
    "service.queue_wait_ms": "ms", "service.lease_hold_ms": "ms",
    "service.point_simulate_ms": "ms", "service.unattributed_ms": "ms",
    "regfile.bypass_fraction": "fraction", "run.unattributed_frac": "fraction",
    "run.trace_overhead_ratio": "ratio", "failed_frac": "fraction",
}


def layer_metrics(values: dict) -> dict:
    return {name: metric(value, LAYER_UNITS.get(name, "count"))
            for name, value in sorted(values.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    traced = bool(args.trace)
    setup = [] if traced else measure_setup(args.workload, args.seed)
    run = set_up(args.workload, args.seed, load_expected())
    try:
        if args.workload == "service-rw":
            values = run_service(run, args.seconds, traced)
        else:
            values = run_sweep(run, args.seconds, traced)
    finally:
        run.close()
    attempted, failed = run.attempted, run.failed
    if traced:
        values["failed_frac"] = failed / attempted
        metrics = layer_metrics(values)
    else:
        metrics = end_to_end_metrics(values, setup)
        print(f"# workload={args.workload} seed={args.seed} "
              f"cold_samples={len(values['cold'])} "
              f"warm_samples={len(values['warm'])} "
              f"setup_samples={len(setup)}")
        print(f"# as measured: setup_s={median([raw for _, raw in setup]):.4f} "
              f"wall_s={values['raw_wall_s']:.4f} "
              f"host_slowdown={run.host.factor():.3f} "
              f"(the JSON times are at reference host speed)")
    if args.workload == "service-rw":
        print(f"# completed_reverts={sum(job.reverts for job in run.jobs)} "
              f"(see README.md)")
    print(f"# seed={args.seed} attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Helpers shared by the benchmark's workloads: paths, digests, statistics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
from typing import Dict, List, Sequence

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Expected per-point stats digests and per-job result digests.
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: Scratch space for on-disk caches; lives inside the checkout.
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: Instructions committed per simulated point, and the planners' usual
#: warm-up stream ahead of them (``ExperimentSettings`` defaults to 2000).
SWEEP_INSTRUCTIONS = 1000
SWEEP_WARMUP = 2000


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere.

    Exits with status 2 when the checkout holds no source tree, so the
    benchmark fails loudly instead of measuring some other copy.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def stats_digest(stats_dict: dict) -> str:
    """Digest of one point's full statistics dictionary."""
    return _digest(stats_dict)


def result_digest(result: dict) -> str:
    """Digest of one job's result payload (``GET /jobs/<id>/result``)."""
    return _digest(result)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _regfile(stats: dict, counter: str) -> int:
    """A register-file counter summed over the int and fp files."""
    regfile = stats["regfile_statistics"]
    return regfile.get(f"int_{counter}", 0) + regfile.get(f"fp_{counter}", 0)


#: Simulated counts summed over one round's points: name -> extractor.
SIM_COUNTS = {
    "pipeline.sim_cycles": lambda s: s["cycles"],
    "pipeline.sim_instructions": lambda s: s["committed_instructions"],
    "regfile.demand_fills": lambda s: _regfile(s, "demand_fills"),
    "regfile.prefetch_fills": lambda s: _regfile(s, "prefetch_fills"),
    "regfile.read_port_stalls": lambda s: _regfile(s, "read_port_stalls"),
    "regfile.fill_stalls": lambda s: s["issue_stalls_fill"],
    "rename.dispatch_stalls_registers": lambda s: s["dispatch_stalls_registers"],
    "execute.dispatch_stalls_window": lambda s: s["dispatch_stalls_window"],
    "execute.dispatch_stalls_rob": lambda s: s["dispatch_stalls_rob"],
    "memsys.dispatch_stalls_lsq": lambda s: s["dispatch_stalls_lsq"],
    "frontend.branch_mispredictions": lambda s: s["branch_mispredictions"],
    "memsys.dcache_misses": lambda s: s["dcache_misses"],
}


def simulated_counts(stats_dicts: List[dict]) -> Dict[str, float]:
    """Exact simulated counts over a fixed set of points."""
    counts: Dict[str, float] = {
        name: sum(extract(s) for s in stats_dicts)
        for name, extract in SIM_COUNTS.items()
    }
    from_bypass = sum(s["operands_from_bypass"] for s in stats_dicts)
    from_file = sum(s["operands_from_file"] for s in stats_dicts)
    total = from_bypass + from_file
    counts["regfile.bypass_fraction"] = from_bypass / total if total else 0.0
    return counts

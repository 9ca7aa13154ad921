"""Regenerate ``expected.json``: the digests the benchmark checks against.

Every point any seed can plan is simulated here on the live path (own
workload generation and frontend, no trace replay), so the benchmark's
replayed results are checked against an independent execution strategy.
Run from the checkout root::

    python3 perfbench/make_expected.py

Regenerate only after a deliberate change to simulated behaviour or to
the service's result payload, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import EXPECTED_PATH, result_digest, stats_digest, use_checkout_source  # noqa: E402

use_checkout_source()

import service_rw  # noqa: E402
import sweeps  # noqa: E402
from repro.experiments.scheduler import run_simulation_point  # noqa: E402
from repro.service.spec import validate_submission  # noqa: E402


def main() -> int:
    points = {}
    for workload in sweeps.SWEEPS:
        for point in sweeps.universe(workload):
            points[point.store_key()] = stats_digest(
                run_simulation_point(point).to_dict()
            )
    results = {}
    for spec in service_rw.universe():
        point = validate_submission(spec).points[0]
        key = point.store_key()
        results[key] = result_digest({
            "kind": "points",
            "points": [{
                "benchmark": point.benchmark,
                "architecture": point.architecture,
                "store_key": key,
                "stats": run_simulation_point(point).to_dict(),
            }],
        })
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"points": points, "results": results}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(points)} point digests and {len(results)} result "
          f"digests to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Pins the whole experiment harness output and every plan's store keys.

``fixtures/harness_report.json`` holds, for a 200-instruction budget on
one integer and one FP benchmark, every experiment's rendered result
(name, title, body, data) and the ordered store keys of every
experiment's plan.  A refactor of the experiment modules must reproduce
both byte for byte.  Regenerate (only for a deliberate change of the
reports or of point identity) with::

    PYTHONPATH=src python tests/test_experiments_report_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import EXPERIMENTS, plan_experiments, run_experiments

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "harness_report.json"

SETTINGS = ExperimentSettings(instructions_per_benchmark=200,
                              benchmarks=["gcc", "swim"])


def harness_report() -> str:
    """The serialized harness output the fixture pins."""
    results = run_experiments(list(EXPERIMENTS), SETTINGS)
    payload = {
        "results": [
            {
                "name": result.name,
                "title": result.title,
                "body": result.body,
                "data": result.data,
            }
            for result in results
        ],
        "plan_keys": {
            name: [point.store_key() for point in plan_experiments([name], SETTINGS)]
            for name in EXPERIMENTS
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_harness_output_and_plan_keys_match_the_pinned_report():
    assert harness_report() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FIXTURE.write_text(harness_report(), encoding="utf-8")
    print(f"wrote {FIXTURE}")

"""Golden-stats parity harness.

One test per register-file architecture asserting that the simulator
reproduces, bit for bit, the ``SimulationStats`` captured from the
seed-equivalent code path (before the hot-path optimization pass).  This
is what allows performance work on the pipeline/execute/regfile layers
to claim "faster, not different": any change to simulation semantics —
intended or not — fails here.

The fixtures are regenerated by ``tests/fixtures/make_golden_fixtures.py``;
only do that when semantics change on purpose, never to silence a
failing parity test.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

sys.path.insert(0, str(FIXTURE_DIR))

from make_golden_fixtures import SCENARIOS, TARGETED_COUNTERS, run_scenario  # noqa: E402

from repro.regfile.ports import PortSet  # noqa: E402


def _normalized(payload: dict) -> dict:
    """Round-trip through JSON so Counter keys compare as strings."""
    return json.loads(json.dumps(payload, sort_keys=True, default=str))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stats_match_seed_golden(scenario):
    fixture_path = FIXTURE_DIR / f"golden_{scenario}.json"
    with open(fixture_path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    current = _normalized(run_scenario(scenario))
    assert current == golden, (
        f"SimulationStats diverged from the seed golden fixture for "
        f"{scenario!r}; if the simulation semantics changed on purpose, "
        f"regenerate the fixtures with tests/fixtures/make_golden_fixtures.py"
    )


def test_fixture_set_covers_every_register_file_architecture():
    """The harness exercises all four architecture families."""
    factories = {type(SCENARIOS[name][1]).__name__ for name in SCENARIOS}
    assert factories == {
        "SingleBankedFactory",
        "OneLevelBankedFactory",
        "RegisterFileCacheFactory",
    }
    # ... including both monolithic timings and an occupancy-collecting run.
    assert any(overrides.get("collect_occupancy") for _, _, overrides in SCENARIOS.values())


@pytest.mark.parametrize("scenario", sorted(TARGETED_COUNTERS))
def test_fixture_keeps_its_targeted_coverage(scenario):
    """A fixture added to pin a rarely taken branch must keep taking it:
    regenerating it after a model change cannot silently drop the
    coverage."""
    path, minimum = TARGETED_COUNTERS[scenario]
    with open(FIXTURE_DIR / f"golden_{scenario}.json", "r", encoding="utf-8") as handle:
        value = json.load(handle)
    for key in path:
        value = value[key]
    assert value >= minimum, f"{scenario}: {'.'.join(path)} = {value} < {minimum}"


def test_one_read_port_scenario_makes_oversized_requests(monkeypatch):
    """Two file reads against one read port take the oversized-request
    branch of ``PortSet.available_capped`` (a read that needs the whole
    otherwise idle file)."""
    oversized = []
    available_capped = PortSet.available_capped

    def counting(self, amount):
        if self.count is not None and amount > self.count:
            oversized.append(amount)
        return available_capped(self, amount)

    monkeypatch.setattr(PortSet, "available_capped", counting)
    run_scenario("single_banked_1c_one_read_port")
    assert len(oversized) > 0

"""Regenerate the golden simulation-statistics fixtures.

The fixtures in this directory pin down the exact ``SimulationStats``
produced by the simulator for one scenario per register-file
architecture.  ``tests/test_golden_stats.py`` asserts that the current
code reproduces them bit-for-bit, which is what lets the hot-path
optimization work on the pipeline/execute/regfile layers claim "faster,
not different".

The committed fixtures were generated from the seed-equivalent code path
(commit ``6af343d``, before the hot-path optimization pass).  Only
regenerate them when the simulation *semantics* are changed on purpose —
never to make a failing parity test pass:

    PYTHONPATH=src python tests/fixtures/make_golden_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent

sys.path.insert(0, str(FIXTURE_DIR.parents[1] / "src"))

from repro.experiments.common import (  # noqa: E402
    OneLevelBankedFactory,
    RegisterFileCacheFactory,
    SingleBankedFactory,
)
from repro.pipeline.config import ProcessorConfig  # noqa: E402
from repro.pipeline.processor import simulate  # noqa: E402
from repro.workloads.kernels import KERNELS, kernel_workload  # noqa: E402
from repro.workloads.profiles import get_profile  # noqa: E402
from repro.workloads.synthetic import SyntheticWorkload  # noqa: E402

#: Instructions committed per scenario (stream is longer so the pipeline
#: never drains early).
INSTRUCTIONS = 2500
STREAM_LENGTH = 3500

#: name -> (profile or kernel, factory, config overrides)
SCENARIOS = {
    "single_banked_1c": (
        "gcc",
        SingleBankedFactory(latency=1, bypass_levels=1, name="1-cycle single-banked"),
        {},
    ),
    "single_banked_2c_full_bypass": (
        "gcc",
        SingleBankedFactory(
            latency=2, bypass_levels=2, read_ports=6, write_ports=4,
            name="2-cycle single-banked, full bypass",
        ),
        {},
    ),
    "single_banked_2c_1_bypass": (
        "perl",
        SingleBankedFactory(
            latency=2, bypass_levels=1, name="2-cycle single-banked, 1 bypass",
        ),
        {},
    ),
    "one_level_banked": (
        "gcc",
        OneLevelBankedFactory(num_banks=4, read_ports_per_bank=2,
                              write_ports_per_bank=2),
        {},
    ),
    "register_file_cache": (
        "gcc",
        RegisterFileCacheFactory(
            caching="non-bypass", fetch="prefetch-first-pair",
            upper_read_ports=4, upper_write_ports=2, lower_write_ports=4,
            buses=2, upper_capacity=16,
        ),
        {},
    ),
    "register_file_cache_ready_occupancy": (
        "swim",
        RegisterFileCacheFactory(caching="ready", fetch="fetch-on-demand"),
        {"collect_occupancy": True},
    ),
    # FP read-port stalls on a port-limited monolithic file.
    "single_banked_2c_fp_ports": (
        "swim",
        SingleBankedFactory(latency=2, bypass_levels=2, read_ports=6,
                            write_ports=4),
        {},
    ),
    # One read port: two-operand reads are oversized requests that need
    # an otherwise idle file (``PortSet.available_capped``).
    "single_banked_1c_one_read_port": (
        "fpppp",
        SingleBankedFactory(latency=1, bypass_levels=1, read_ports=1,
                            write_ports=1),
        {},
    ),
    # The stencil kernel stores and reloads the same addresses while both
    # are in flight, so many loads are forwarded inside the LSQ.
    "stencil_store_forwarding": (
        "stencil",
        SingleBankedFactory(latency=2, bypass_levels=1, read_ports=4,
                            write_ports=2),
        {},
    ),
}

#: name -> (counter path, minimum) that the scenario exists to cover; the
#: parity tests assert each fixture still reaches its minimum.
TARGETED_COUNTERS = {
    "single_banked_2c_fp_ports": (("regfile_statistics", "fp_read_port_stalls"), 1),
    "single_banked_1c_one_read_port": (("regfile_statistics", "int_read_port_stalls"), 1),
    "stencil_store_forwarding": (("loads_forwarded",), 10),
}


def run_scenario(name: str) -> dict:
    profile_name, factory, overrides = SCENARIOS[name]
    if profile_name in KERNELS:
        stream = kernel_workload(profile_name, STREAM_LENGTH)
    else:
        stream = SyntheticWorkload(get_profile(profile_name)).instructions(STREAM_LENGTH)
    config = ProcessorConfig(max_instructions=INSTRUCTIONS, **overrides)
    stats = simulate(stream, factory, config, benchmark_name=profile_name)
    return stats.to_dict()


def main() -> int:
    for name in SCENARIOS:
        payload = run_scenario(name)
        path = FIXTURE_DIR / f"golden_{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path} (cycles={payload['cycles']}, "
              f"ipc={payload['committed_instructions'] / payload['cycles']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

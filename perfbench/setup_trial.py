"""One set-up trial in a fresh process, started by ``run.py``.

Sets the workload up as a run would, prints ``ready <probe> <probe>`` —
two host-speed probes, taken before the program is imported and once it
is ready — then tears it down.  Usage::

    python3 perfbench/setup_trial.py <workload> <seed>
"""

from __future__ import annotations

import sys

from common import use_checkout_source
from hostspeed import HostSpeed


def main(workload: str, seed: str) -> int:
    host = HostSpeed()
    first = host.probe()
    use_checkout_source()
    from run import set_up

    run = set_up(workload, int(seed), {"points": {}, "results": {}})
    sys.stdout.write(f"ready {first!r} {host.probe()!r}\n")
    sys.stdout.flush()
    run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""Host-speed normalisation of the measured times.

On a shared host the speed of one CPU changes by up to 1.8x within a
second, and its average over minutes drifts by as much, because other
tenants load the same cores.  A run cannot avoid that, so it measures
it: :meth:`HostSpeed.probe` times a fixed pure-Python reference loop
next to the work, and :meth:`HostSpeed.scale` turns a measured time into
the time it would have taken at the reference speed::

    normalised = measured * REFERENCE_S / probe

The reference loop is part of the benchmark, not of the program, and
must never change: a change to it changes every time the benchmark
reports.  It walks a fixed table of small objects in a fixed
pseudo-random order (attribute reads, dictionary lookups, integer
arithmetic), the kind of work the simulator spends its time on.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

#: Probe time of the reference loop at the fast end of a shared 2-CPU
#: x86-64 container under Python 3.11 (its probes ranged 42-76 µs).
REFERENCE_S = 45e-6

#: Timed repetitions per probe; the probe is their median.
_REPEATS = 5


class _Entry:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: int) -> None:
        self.value = value
        self.link = link


_rng = random.Random(20000)
_TABLE = {index: _Entry(index, _rng.randrange(20000)) for index in range(20000)}
_WALK = [_rng.randrange(20000) for _ in range(400)]
del _rng


def _reference_work() -> int:
    table = _TABLE
    total = 0
    for key in _WALK:
        entry = table[key]
        total += entry.value ^ table[entry.link].value
    return total


class HostSpeed:
    """Probes of host speed taken during one run."""

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self) -> float:
        """Time the reference loop now; returns the probe in seconds."""
        samples = []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            _reference_work()
            samples.append(time.perf_counter() - started)
        probe = statistics.median(samples)
        self.probes.append(probe)
        return probe

    @staticmethod
    def scale(seconds: float, *probes: float) -> float:
        """``seconds`` at reference speed, given the probes around it."""
        return seconds * REFERENCE_S * len(probes) / sum(probes)

    def factor(self) -> float:
        """Mean slowdown against the reference over this run's probes."""
        return statistics.mean(self.probes) / REFERENCE_S if self.probes else 1.0

"""Bypass (forwarding) network timing model.

The paper's comparison hinges on how many *levels* of bypass a register
file architecture needs.  A register file with ``read_stages`` cycles of
operand read requires ``read_stages`` levels of bypass for dependent
instructions to execute back-to-back; every missing level adds one cycle
of effective producer→consumer latency (keeping only the *last* level
avoids "holes": once a value leaves the bypass network it is already
readable from the register file).

This module encapsulates that arithmetic.  How operands were actually
delivered is counted in ``SimulationStats.operands_from_bypass`` /
``operands_from_file`` and, per value, in its scoreboard state (which the
non-bypass caching policy reads).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BypassTiming:
    """Derived timing facts for one (read_stages, bypass_levels) pair."""

    read_stages: int
    bypass_levels: int
    #: Extra cycles of effective producer→consumer latency caused by the
    #: missing bypass levels (0 when fully bypassed).
    extra_consumer_latency: int


class BypassNetwork:
    """Availability calculations for a given bypass configuration."""

    def __init__(self, read_stages: int, bypass_levels: int) -> None:
        if read_stages <= 0:
            raise ConfigurationError("read_stages must be positive")
        if not 0 <= bypass_levels <= read_stages:
            raise ConfigurationError(
                "bypass_levels must be between 0 and read_stages (full bypass)"
            )
        self.read_stages = read_stages
        self.bypass_levels = bypass_levels

    @property
    def timing(self) -> BypassTiming:
        return BypassTiming(
            read_stages=self.read_stages,
            bypass_levels=self.bypass_levels,
            extra_consumer_latency=self.read_stages - self.bypass_levels,
        )

    # ------------------------------------------------------------------

    def earliest_consumer_execute(self, producer_ex_end: int) -> int:
        """Earliest cycle a dependent instruction can start executing.

        With full bypass this is the cycle right after the producer
        finishes; each missing bypass level costs one more cycle.
        """
        return producer_ex_end + 1 + (self.read_stages - self.bypass_levels)

    def served_by_bypass(self, producer_ex_end: int, rf_ready_cycle: int | None,
                         consumer_ex_start: int) -> bool:
        """Whether a consumer executing at ``consumer_ex_start`` gets the
        operand from the bypass network rather than the register file.

        The operand comes from the register file only if the read that
        started ``read_stages`` cycles before execution could already see
        the value there; otherwise it must have been bypassed.
        """
        if rf_ready_cycle is None:
            return True
        read_start = consumer_ex_start - self.read_stages
        return read_start < rf_ready_cycle

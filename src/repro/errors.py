"""Exception hierarchy for the repro package.

All errors raised deliberately by the library derive from
:class:`ReproError` so that callers can catch library-specific failures
without accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad mnemonic, undefined label...)."""


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class RenameError(SimulationError):
    """Register renaming failed (e.g. free-list underflow or bad mapping)."""


class RegisterFileError(SimulationError):
    """A register-file bank was used inconsistently (bad port counts,
    reading a register that was never written, ...)."""


class WorkloadError(ReproError):
    """A workload profile or generator was mis-specified."""


class ValidationError(ReproError):
    """The differential validation subsystem found an inconsistency
    (malformed instruction stream, incomparable reports, bad fault spec)."""


class MissingResultError(ReproError):
    """An experiment asked for a simulation result the store does not hold."""


class ModelError(ReproError):
    """The analytical area/access-time model was queried out of range."""

"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters."""


class EncodingError(ReproError):
    """A coset/ECC encoder could not encode or decode a block."""


class MemoryModelError(ReproError):
    """The PCM array, fault map, or endurance model was used incorrectly."""


class TraceError(ReproError):
    """A workload trace is malformed or inconsistent with the memory model."""


class SimulationError(ReproError):
    """An experiment or simulator was driven with invalid inputs."""


class UncorrectableError(ReproError):
    """An ECC substrate was presented with more errors than it can correct.

    Carries the syndrome / error positions observed so lifetime simulations
    can record the failure rather than silently mis-correcting.
    """

    def __init__(self, message: str, positions: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.positions = tuple(positions)

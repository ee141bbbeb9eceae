"""Exception hierarchy for the NDFT reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish library failures from programming errors.
"""

from __future__ import annotations

import math
from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A hardware or workload configuration is inconsistent."""


class OutOfMemoryError(ReproError):
    """A simulated memory (DRAM, SPM, GPU HBM) cannot satisfy an allocation.

    Mirrors the OOM failures the paper reports for replicated pseudopotential
    layouts on many-core NDP systems (§III-B).
    """

    def __init__(self, message: str, *, requested: int = 0, available: int = 0):
        super().__init__(message)
        self.requested = requested
        self.available = available


class AllocationError(ReproError):
    """A shared-memory allocation request was malformed (not capacity)."""


class SchedulingError(ReproError):
    """The offload scheduler was given an unsatisfiable problem."""


class CommunicationError(ReproError):
    """A simulated MPI or shared-memory communication primitive was misused."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class AnalysisError(ReproError):
    """The invariant analyzer (``python -m repro lint``) could not run
    — unreadable path, unparsable source, or malformed baseline."""


class PhysicsError(ReproError):
    """A DFT/LR-TDDFT computation produced an invalid result (e.g. a
    non-Hermitian response matrix or negative excitation energy)."""


def finite_float(value, what: str, error: type[ReproError] = ConfigError) -> float:
    """``value`` as a float; raises ``error`` naming ``what`` unless it
    is a finite real number (NaN and infinities slip through ordinary
    ``<``/``>`` range checks, and would otherwise surface as a NaN
    result far from the input that caused it)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{what} must be a finite number, got {value!r}")
    return number


def finite_floats(
    values: Iterable, what: str, error: type[ReproError] = ConfigError
) -> list[float]:
    """``values`` as a list of floats; raises ``error`` naming the index
    of the first entry :func:`finite_float` rejects."""
    values = list(values)
    try:
        floats = list(map(float, values))
    except (TypeError, ValueError):
        floats = None
    if floats is None or not all(map(math.isfinite, floats)):
        for index, value in enumerate(values):
            finite_float(value, f"{what} {index}", error)
    return floats

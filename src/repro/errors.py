"""Exception hierarchy for the NDFT reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish library failures from programming errors.
"""

from __future__ import annotations

import math
import operator
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
    result far from the input that caused it).  Text is refused even
    when it spells a number: ``float`` would parse ``"1"``, but
    ``math.isfinite`` takes real numbers only."""
    try:
        number = float(value)
        finite = math.isfinite(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be a finite number, got {value!r}") from None
    if not finite:
        raise error(f"{what} must be a finite number, got {value!r}")
    return number


def finite_floats(
    values: Iterable, what: str, error: type[ReproError] = ConfigError
) -> list[float]:
    """``values`` as a list of floats; raises ``error`` naming the index
    of the first entry :func:`finite_float` rejects.  The finiteness
    pass runs over the raw values, so it refuses text as well."""
    values = list(values)
    try:
        floats = list(map(float, values))
        valid = all(map(math.isfinite, values))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        for index, value in enumerate(values):
            finite_float(value, f"{what} {index}", error)
    return floats


def integer_seed(value) -> int:
    """``value`` as an int seed; raises :class:`ConfigError` for
    ``None`` (which would draw from OS entropy and break
    reproducibility), bools, floats and anything else
    :func:`operator.index` rejects."""
    if value is not None and not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"seed must be an integer, got {value!r}")


def positive_int(value, what: str) -> int:
    """``value`` as an int >= 1; raises :class:`ConfigError` naming
    ``what`` for bools, floats and anything else :func:`operator.index`
    rejects (``np.int64(8)`` passes as ``8``), and for values below 1."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if number >= 1:
                return number
    raise ConfigError(f"{what} must be an integer >= 1, got {value!r}")

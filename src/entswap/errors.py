"""Exception types shared across the package, and the checks of parameters."""

import math

import numpy as np


class EntswapError(ValueError):
    """Base class for all errors raised by this package."""


class NotHermitianError(EntswapError):
    """Input matrix deviates from its adjoint beyond tolerance."""


class NotPsdError(EntswapError):
    """Hermitian input has an eigenvalue below the allowed floor."""


class BadIndexError(EntswapError):
    """Index or index set outside the valid range."""


class BadDimError(EntswapError):
    """Matrix dimension does not match the operation's requirement."""


class BadParamError(EntswapError):
    """Scalar parameter outside its allowed interval."""


class NotAStateError(EntswapError):
    """Matrix fails the density-matrix invariants (Hermitian, unit trace, PSD)."""


class InvalidPovmError(EntswapError):
    """Effect list fails the POVM invariants; message carries the violations.

    ``problems`` lists the violations that the message joins, if any.
    """

    def __init__(self, message: str, problems: list[str] | None = None) -> None:
        super().__init__(message)
        self.problems = problems or []


class DegenerateEffectError(EntswapError):
    """Effect trace too small to define a conditional state."""


class NoBracketError(EntswapError):
    """Root bracketing failed: both endpoints classify identically."""


class NonMonotoneWarning(UserWarning):
    """Measure is not monotone on the bisection bracket; root may not be unique."""


def check_tolerance(tol: float) -> None:
    """Raise BadParamError unless ``tol`` is finite and above 0.

    A NaN tolerance makes every ``> tol`` test false and an infinite one makes
    them all false too, so both would give vacuous answers, not errors.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise BadParamError(f"tolerance must be positive and finite, got {tol}")


_OUTSIDE_UNIT = "{} must be in [0, 1], got {}"


def check_unit(name: str, value) -> None:
    """Raise BadParamError unless the scalar ``value`` is in [0, 1] (NaN is
    not); plain Python, as a numpy check costs about 100 times as much."""
    if not 0.0 <= value <= 1.0:
        raise BadParamError(_OUTSIDE_UNIT.format(name, value))


def check_unit_array(name: str, values) -> np.ndarray:
    """``values`` as a float array, or BadParamError naming the first entry
    outside [0, 1] (NaN is), as the input gives it."""
    values = np.asarray(values)
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise BadParamError(_OUTSIDE_UNIT.format(name, values[outside][0]))
    return np.asarray(values, dtype=float)

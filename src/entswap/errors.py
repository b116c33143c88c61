"""Exception types shared across the package, and the checks of parameters."""

import math
import numbers

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
    """Raise BadParamError unless ``tol`` is a finite number above 0.

    A NaN tolerance makes every ``> tol`` test false and an infinite one makes
    them all false too, so both would give vacuous answers, not errors. A
    value that is no real number (a str, a list) is rejected the same way.
    """
    try:
        if math.isfinite(tol) and tol > 0:
            return
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadParamError(f"tolerance must be positive and finite, got {tol}")


def check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raise BadParamError unless ``value`` is a str among ``choices``; any
    other type is rejected before it is compared, so an array or a list
    cannot pass as a choice."""
    if not (isinstance(value, str) and value in choices):
        raise BadParamError(f"{name} must be one of {choices}, got {value!r}")


def check_index(name: str, value, count: int) -> int:
    """``value`` as an int in 1..count, or BadIndexError (2.0 passes; 1.5, "2", [2] do not),
    which shows a value that is no number by its ``repr``, so "2" does not read as 2."""
    if isinstance(value, numbers.Real) and value in range(1, count + 1):
        return int(value)
    shown = value if isinstance(value, numbers.Number) else repr(value)
    raise BadIndexError(f"{name} must be 1..{count}, got {shown}")


def outside_unit(name: str, value) -> BadParamError:
    """The error for a ``name`` that is not a number in [0, 1]."""
    return BadParamError(f"{name} must be in [0, 1], got {value}")


def check_unit(name: str, value) -> None:
    """Raise BadParamError unless the scalar ``value`` is in [0, 1] (NaN is
    not, nor is a value that does not compare as one scalar, such as a str,
    a list or an array of two); plain Python, as a numpy check costs about
    100 times as much."""
    try:
        if 0.0 <= value <= 1.0:
            return
    except (TypeError, ValueError):
        pass
    raise outside_unit(name, value)


def complex_array(values, error: type[EntswapError]) -> np.ndarray:
    """``values`` as a complex array, or ``error`` where numpy cannot convert
    it: an entry that is no number (a str such as "a"), a ragged nesting, or
    an int beyond float range."""
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"expected an array of numbers: {exc}") from None


def check_unit_array(name: str, values) -> np.ndarray:
    """``values`` as a float array, or BadParamError naming the first entry
    outside [0, 1] (NaN is), as the input gives it, or the whole input if it
    is no array of numbers."""
    try:
        array = np.asarray(values)
        outside = ~((0.0 <= array) & (array <= 1.0))
    except (TypeError, ValueError):
        raise outside_unit(name, values) from None
    if outside.any():
        raise outside_unit(name, array[outside][0])
    return np.asarray(array, dtype=float)

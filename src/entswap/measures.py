"""Correlation quantifiers for two-qubit states.

All three quantifiers derive from the 3x3 correlation matrix
T_ij = Tr[rho (sigma_i x sigma_j)] and the partial transpose:

* nonlocality  N  = max{0, (sqrt(M) - 1)/(sqrt2 - 1)}, M = two largest
  eigenvalues of T^T T summed; the CHSH value is B = 2 sqrt(M).
* steering     S2 = N (two-setting), S3 = max{0, (sqrt(L3) - 1)/(sqrt3 - 1)}
  with L3 the full eigenvalue sum of T^T T (three-setting).
* negativity   E  = 2 max{0, -min eigenvalue of the partial transpose},
  which equals trace_norm(partial transpose) - 1 whenever positive.

The *_signed variants return the expression before the max{0, .} clamp; the
sign change marks the classification boundary and is what root finders
should bisect on. Each is computed once, on a (..., 4, 4) stack, by
``_spectrum_stack``, ``_negativity_stack`` and the elementwise N and S3
formulas: ``correlation_spectrum`` and ``negativity_signed`` are their
one-point views, and ``_signed_stack`` (``report_stack``, the bisection of
``analysis``) reads them on a whole stack, one eigensolver call per spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAStateError, check_tolerance, complex_array
from .linalg import hermitian_eigvals, kron, partial_transpose
from .states import DensityMatrix, check_density_matrix, is_density_matrix, one_matrix

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Pre-built two-qubit Pauli products sigma_i x sigma_j.
_PAULI_STACK = np.array([[kron(si, sj) for sj in PAULI] for si in PAULI])

# Columns of ``CorrelationReport.values()``, in order.
QUANTITIES = ("negativity", "steering2", "steering3", "nonlocality", "M", "Lambda3")

# Largest imaginary part tolerated in a correlation-matrix entry.
_IMAG_RESIDUE = 1e-10


def _as_state(rho) -> DensityMatrix:
    # A two-qubit DensityMatrix was checked when it was built.
    if isinstance(rho, DensityMatrix) and rho.qubits == 2:
        return rho
    return DensityMatrix._checked(2, check_density_matrix(one_matrix(rho), qubits=2))


def _clamped(v: np.ndarray) -> np.ndarray:
    # max(0, v) elementwise; unlike np.maximum it turns -0.0 into 0.0.
    return np.where(v > 0.0, v, 0.0)


def _spectrum_stack(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """T, the largest imaginary residue of T, the clamped descending
    eigenvalues t of T^T T and their sums M and Lambda3, of each state of a
    (..., 4, 4) stack."""
    raw = np.einsum("...ab,ijba->...ij", m, _PAULI_STACK)  # Tr[rho (sigma_i x sigma_j)]
    T = raw.real
    t = _clamped(hermitian_eigvals(T.swapaxes(-1, -2) @ T)[..., ::-1])
    m_value = t[..., 0] + t[..., 1]
    return T, np.abs(raw.imag).max(axis=(-2, -1)), t, m_value, m_value + t[..., 2]


def _negativity_stack(m: np.ndarray) -> np.ndarray:
    """Signed negativity of each state of a (..., 4, 4) stack."""
    return -2.0 * np.linalg.eigvalsh(partial_transpose(m, "second")).min(axis=-1)


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Correlation matrix T with the eigenvalues of T^T T (descending)."""

    T: np.ndarray = field(repr=False)
    t: tuple[float, float, float]
    M: float
    Lambda3: float


def correlation_spectrum(rho) -> CorrelationSpectrum:
    """Correlation matrix and the derived pair-sum / total eigenvalue data."""
    T, residue, t, m_value, lambda3 = _spectrum_stack(_as_state(rho).matrix)
    if residue > _IMAG_RESIDUE:
        raise NotAStateError(f"correlation matrix has imaginary residue {residue:.3e}")
    return CorrelationSpectrum(T=T, t=tuple(t.tolist()), M=float(m_value), Lambda3=float(lambda3))


def nonlocality_from_pair_sum(m_value):
    """Signed CHSH quantifier from the largest eigenvalue pair sum, elementwise."""
    return (np.sqrt(np.maximum(m_value, 0.0)) - 1.0) / (_SQRT2 - 1.0)


def steering3_from_total(lambda3):
    """Signed three-setting steering quantifier from the eigenvalue total, elementwise."""
    return (np.sqrt(np.maximum(lambda3, 0.0)) - 1.0) / (_SQRT3 - 1.0)


def nonlocality_signed(rho) -> float:
    return nonlocality_from_pair_sum(correlation_spectrum(rho).M)


def steering3_signed(rho) -> float:
    return steering3_from_total(correlation_spectrum(rho).Lambda3)


def negativity_signed(rho) -> float:
    """Twice the negated smallest partial-transpose eigenvalue, unclamped."""
    return float(_negativity_stack(_as_state(rho).matrix))


def bell_nonlocality(rho) -> float:
    """Degree of CHSH violation, normalized to 1 for a Bell state."""
    return max(0.0, nonlocality_signed(rho))


def steering2(rho) -> float:
    """Two-setting steering quantifier; coincides with ``bell_nonlocality``."""
    return bell_nonlocality(rho)


def steering3(rho) -> float:
    """Three-setting steering quantifier, normalized to 1 for a Bell state."""
    return max(0.0, steering3_signed(rho))


def negativity(rho) -> float:
    """Entanglement negativity, normalized to 1 for a Bell state."""
    return max(0.0, negativity_signed(rho))


@dataclass(frozen=True)
class CorrelationReport:
    """All quantifiers of one state plus threshold classifications.

    Booleans hold when the corresponding quantifier exceeds ``tol``; the
    hierarchy nonlocal => steerable => entangled is enforced.
    """

    negativity: float
    M: float
    Lambda3: float
    B: float
    S2: float
    S3: float
    N: float
    entangled: bool
    steerable: bool
    nonlocal_: bool
    tol: float

    @classmethod
    def from_quantities(
        cls, negativity: float, m_value: float, lambda3: float, tol: float = 1e-9
    ) -> "CorrelationReport":
        check_tolerance(tol)
        n = float(max(0.0, nonlocality_from_pair_sum(m_value)))
        s3 = float(max(0.0, steering3_from_total(lambda3)))
        neg = float(max(0.0, negativity))
        rep = cls(
            negativity=neg,
            M=float(m_value),
            Lambda3=float(lambda3),
            B=float(2.0 * np.sqrt(max(m_value, 0.0))),
            S2=n,
            S3=s3,
            N=n,
            entangled=bool(neg > tol),
            steerable=bool(s3 > tol),
            nonlocal_=bool(n > tol),
            tol=tol,
        )
        if (rep.nonlocal_ and not rep.steerable) or (rep.steerable and not rep.entangled):
            raise NotAStateError(
                "correlation hierarchy violated: "
                f"N={n:.3e}, S3={s3:.3e}, negativity={neg:.3e}"
            )
        return rep

    def values(self) -> dict[str, float]:
        """Quantifier columns keyed by their CSV names, in QUANTITIES order."""
        columns = (self.negativity, self.S2, self.S3, self.N, self.M, self.Lambda3)
        return dict(zip(QUANTITIES, columns))


def report(rho, tol: float = 1e-9) -> CorrelationReport:
    """Evaluate every quantifier of a two-qubit state, checked once, at one tolerance."""
    state = _as_state(rho)
    spectrum = correlation_spectrum(state)
    return CorrelationReport.from_quantities(
        negativity(state), spectrum.M, spectrum.Lambda3, tol=tol
    )


def _signed_stack(states) -> tuple[np.ndarray, ...]:
    """Signed negativity, nonlocality and steering3, with M and Lambda3, of
    every state of a (..., 4, 4) stack.

    Returns the five arrays, shape (...), and ``ok``, False where the
    density-matrix invariants or the imaginary-residue check of T fail; the
    values of a state that is not ok are those of the zero matrix.
    """
    m = complex_array(states, NotAStateError)
    ok = is_density_matrix(m)
    # Zeroing the states that are not ok keeps non-finite ones from the eigensolvers.
    m = np.where(ok[..., None, None], m, 0.0)
    _, residue, _, m_value, lambda3 = _spectrum_stack(m)
    ok &= residue <= _IMAG_RESIDUE
    n, s3 = nonlocality_from_pair_sum(m_value), steering3_from_total(lambda3)
    return _negativity_stack(m), n, s3, m_value, lambda3, ok


def report_stack(states, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """``report`` on every state of a (..., 4, 4) stack at once.

    Returns ``values``, shape (..., 6), holding the columns of
    ``CorrelationReport.values()`` in QUANTITIES order, and ``ok``, shape
    (...), False where a check that ``report`` makes fails: the density-matrix
    invariants, the imaginary residue of T, or the hierarchy
    nonlocal => steerable => entangled at ``tol``. ``report`` on a state
    that is not ok raises the error or gives its values.
    """
    check_tolerance(tol)
    neg, n, s3, m_value, lambda3, ok = _signed_stack(states)
    neg, n, s3 = _clamped(neg), _clamped(n), _clamped(s3)
    entangled, steerable, nonlocal_ = neg > tol, s3 > tol, n > tol
    ok &= ~((nonlocal_ & ~steerable) | (steerable & ~entangled))
    return np.stack([neg, n, s3, n, m_value, lambda3], axis=-1), ok

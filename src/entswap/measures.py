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
``_correlation_stack``, ``_spectrum_stack``, ``_negativity_stack`` and the
elementwise N and S3 formulas: ``correlation_spectrum`` and
``negativity_signed`` are their one-point views. ``_signed_stack``
(``report_stack``) reads the signed negativity, M and Lambda3 on a whole
stack, one eigensolver call per spectrum; ``_signed_rows`` (the bisection of
``analysis``) reads one signed quantifier per state, solving only the
spectrum it needs. Both make the checks of ``_checked_stack``.
``_report_columns`` is the rule of ``CorrelationReport.from_quantities`` on
stacked values, with its inputs (signed negativity, M, Lambda3), read by
``report_stack`` and by the closed-form grid of ``analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAStateError, check_finite, check_tolerance, complex_array
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


def _correlation_stack(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """T, the largest imaginary residue of T and the product T^T T, of each
    state of a (..., 4, 4) stack."""
    raw = np.einsum("...ab,ijba->...ij", m, _PAULI_STACK)  # Tr[rho (sigma_i x sigma_j)]
    T = raw.real
    return T, np.abs(raw.imag).max(axis=(-2, -1)), T.swapaxes(-1, -2) @ T


def _spectrum_stack(product: np.ndarray) -> tuple[np.ndarray, ...]:
    """The clamped descending eigenvalues t of each T^T T of a (..., 3, 3)
    stack, and their sums M and Lambda3."""
    t = _clamped(hermitian_eigvals(product)[..., ::-1])
    m_value = t[..., 0] + t[..., 1]
    return t, m_value, m_value + t[..., 2]


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
    T, residue, product = _correlation_stack(_as_state(rho).matrix)
    if residue > _IMAG_RESIDUE:
        raise NotAStateError(f"correlation matrix has imaginary residue {residue:.3e}")
    t, m_value, lambda3 = _spectrum_stack(product)
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


def _clamped_quantifiers(negativity, m_value, lambda3) -> tuple[float, float, float]:
    """Negativity, N and S3, each clamped at 0 from below, from the signed
    negativity and the eigenvalue sums M and Lambda3 of T^T T."""
    return (
        float(max(0.0, negativity)),
        float(max(0.0, nonlocality_from_pair_sum(m_value))),
        float(max(0.0, steering3_from_total(lambda3))),
    )


@dataclass(frozen=True)
class CorrelationReport:
    """All quantifiers of one state plus threshold classifications.

    Booleans hold when the corresponding quantifier exceeds ``tol``; the
    hierarchy nonlocal => steerable => entangled is enforced.
    ``from_quantities`` takes the signed negativity, M and Lambda3, each a
    finite real number (else BadParamError).
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
        names = ("negativity", "M", "Lambda3")
        negativity, m_value, lambda3 = map(check_finite, names, (negativity, m_value, lambda3))
        neg, n, s3 = _clamped_quantifiers(negativity, m_value, lambda3)
        rep = cls(
            negativity=neg, M=m_value, Lambda3=lambda3, B=float(2.0 * np.sqrt(max(m_value, 0.0))),
            S2=n, S3=s3, N=n, entangled=bool(neg > tol), steerable=bool(s3 > tol),
            nonlocal_=bool(n > tol), tol=tol,
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
        negativity_signed(state), spectrum.M, spectrum.Lambda3, tol=tol
    )


def _checked_stack(states) -> tuple[np.ndarray, ...]:
    """The checks of the stacked quantifiers on a (..., 4, 4) stack of states.

    Returns the states, those that are not ok zeroed, their products T^T T,
    and ``ok``, shape (...), False where the density-matrix invariants or the
    imaginary-residue check of T fail. No eigensolver runs here.
    """
    m = complex_array(states, NotAStateError)
    ok = is_density_matrix(m)
    # Zeroing the states that are not ok keeps non-finite ones from the eigensolvers.
    if not ok.all():
        m = np.where(ok[..., None, None], m, 0.0)
    _, residue, product = _correlation_stack(m)
    return m, product, ok & (residue <= _IMAG_RESIDUE)


def _signed_stack(states) -> tuple[np.ndarray, ...]:
    """Signed negativity, M and Lambda3 of every state of a (..., 4, 4) stack.

    Returns the three arrays, shape (...), and ``ok`` of ``_checked_stack``;
    the values of a state that is not ok are those of the zero matrix.
    """
    m, product, ok = _checked_stack(states)
    _, m_value, lambda3 = _spectrum_stack(product)
    return _negativity_stack(m), m_value, lambda3, ok


def _signed_rows(states, columns) -> tuple[np.ndarray, np.ndarray]:
    """One signed quantity of each state of an (n, 4, 4) stack: for state i,
    column ``columns[i]`` of QUANTITIES, one of the first four.

    Returns the n values, bit for bit ``_signed_stack``'s negativity or the
    N and S3 of its M and Lambda3, and its ``ok``. Each state gets one
    eigensolve: its partial transpose for the negativity, its T^T T for the
    other three.
    """
    m, product, ok = _checked_stack(states)
    columns = np.asarray(columns)
    values = np.empty(ok.shape)
    negativity = columns == QUANTITIES.index("negativity")
    if negativity.any():
        values[negativity] = _negativity_stack(m[negativity])
    if not negativity.all():
        spectral = ~negativity
        _, m_value, lambda3 = _spectrum_stack(product[spectral])
        steering3 = columns[spectral] == QUANTITIES.index("steering3")
        values[spectral] = np.where(
            steering3, steering3_from_total(lambda3), nonlocality_from_pair_sum(m_value)
        )
    return values, ok


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
    *signed, ok = _signed_stack(states)
    values, ordered = _report_columns(*signed, tol)
    return values, ok & ordered


def _report_columns(neg, m_value, lambda3, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``CorrelationReport.values()``, shape (..., 6), from
    the signed negativity and the sums M and Lambda3, each of shape (...),
    and the mask of the values that keep the hierarchy nonlocal =>
    steerable => entangled at ``tol``, where ``CorrelationReport`` raises:
    the clamping and hierarchy rule of ``from_quantities``, elementwise."""
    n, s3 = nonlocality_from_pair_sum(m_value), steering3_from_total(lambda3)
    neg, n, s3 = _clamped(neg), _clamped(n), _clamped(s3)
    entangled, steerable, nonlocal_ = neg > tol, s3 > tol, n > tol
    ordered = ~((nonlocal_ & ~steerable) | (steerable & ~entangled))
    return np.stack([neg, n, s3, n, m_value, lambda3], axis=-1), ordered

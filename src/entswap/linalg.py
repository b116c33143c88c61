"""Dense complex linear algebra for small multi-qubit operators (dim <= 16).

``hermitian_eig``, ``hermitian_eigvals``, ``psd_sqrt``, ``partial_trace`` and
``partial_transpose`` also take a stack of matrices, shape (..., d, d), and
treat each matrix independently in one numpy call.

Bit convention used everywhere in this package: qubit 1 is the most
significant bit, so the basis index of |b1 b2 b3 b4> is
b1*8 + b2*4 + b3*2 + b4. Qubit indices are 1-based.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BadDimError,
    BadIndexError,
    NotHermitianError,
    NotPsdError,
    check_qubits,
    complex_array,
)

# Asymmetry beyond this is an input error; below it is rounding noise that
# gets symmetrized away.
HERMITIAN_ATOL = 1e-8

# Eigenvalues in [-EIG_CLAMP, 0) are clamped to zero for PSD operations;
# anything below -EIG_CLAMP is a hard error, since silently clamping a real
# negative eigenvalue would corrupt the physics downstream.
EIG_CLAMP = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product, left factor most significant."""
    a, b = complex_array(a, BadDimError), complex_array(b, BadDimError)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise BadDimError("Kronecker factor has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # a product beyond range is inf or NaN
        product = np.kron(a, b)
    if not np.isfinite(product).all():
        raise BadDimError("Kronecker product has an entry beyond float range")
    return product


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition: eigenvalues ascending, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def freeze(m: np.ndarray) -> np.ndarray:
    """``m`` as a read-only array over immutable bytes, which neither it nor
    any array up its ``.base`` chain can make writeable again. An array that
    already is one, such as a view of a frozen stack, is returned as it is."""
    root = m
    while isinstance(root, np.ndarray):
        root = root.base
    if isinstance(root, bytes):
        return m
    return np.frombuffer(m.tobytes(), dtype=m.dtype).reshape(m.shape)


def invariant_residuals(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per matrix of a complex (..., d, d) stack: finite or not, the matrix
    with the non-finite ones zeroed, its Hermitian residual max |m - m†| and
    its Hermitian part (m + m†)/2, which the floor checks factor or solve."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    # Factorizations and eigensolvers fail on non-finite entries, so those
    # matrices are zeroed; halving before adding keeps the Hermitian part of
    # huge entries finite.
    if not finite.all():
        m = np.where(finite[..., None, None], m, 0.0)
    with np.errstate(over="ignore"):  # a residual beyond float range is inf
        herm = np.abs(m - _adjoint(m)).max(axis=(-2, -1))
    half = m / 2
    return finite, m, herm, half + _adjoint(half)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """Return (m + m†)/2, rejecting an empty matrix, non-finite entries
    (before they reach any arithmetic) and asymmetry beyond HERMITIAN_ATOL."""
    m = complex_array(m, BadDimError)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise BadDimError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise BadDimError(f"expected a nonempty matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix has a non-finite entry")
    # Halved first, so huge entries stay finite; a float doubled beyond range is inf.
    half = m / 2
    adjoint = _adjoint(half)
    residual = 2 * float(np.abs(half - adjoint).max())
    if not residual < HERMITIAN_ATOL:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {residual:.3e} "
            f"(allowed {HERMITIAN_ATOL:.0e})"
        )
    return half + adjoint


def _in_range(values, what: str):
    """``values``, computed from a finite matrix, or NotHermitianError if one is
    beyond float range. Next to an eigenvalue beyond range the solver gives the
    others as rounding noise of that size, which could call a PSD matrix non-PSD."""
    if not np.isfinite(values).all():
        raise NotHermitianError(f"{what} beyond float range")
    return values


def hermitian_eig(m: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (m + m†)/2 before solving; eigenvalues come
    back sorted ascending with matching orthonormal eigenvector columns.
    """
    values, vectors = np.linalg.eigh(_symmetrized(m))
    return HermitianEig(eigenvalues=_in_range(values, "eigenvalue"), eigenvectors=vectors)


def hermitian_eigvals(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, symmetrized as in ``hermitian_eig``."""
    return _in_range(np.linalg.eigvalsh(_symmetrized(m)), "eigenvalue")


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-EIG_CLAMP, 0) are treated as zero; anything below the
    clamp raises NotPsdError.
    """
    eig = hermitian_eig(m)
    low = float(eig.eigenvalues.min())
    if low < -EIG_CLAMP:
        raise NotPsdError(f"eigenvalue {low:.3e} below the PSD floor -{EIG_CLAMP:.0e}")
    roots = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    v = eig.eigenvectors
    out = (v * roots[..., None, :]) @ _adjoint(v)
    return (out + _adjoint(out)) / 2


def partial_trace(m: np.ndarray, qubits_total: int, keep: Iterable[int]) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (1-based indices, qubit 1 = MSB).

    ``m`` is one matrix or a stack, shape (..., 2**qubits_total,
    2**qubits_total); each matrix of a stack is reduced independently.
    ``keep`` must be a nonempty strict subset of {1..qubits_total}; kept
    qubits retain their relative order. The total trace is preserved.
    """
    m = complex_array(m, BadDimError)
    dim = 2 ** check_qubits(qubits_total, BadDimError)
    if m.shape[-2:] != (dim, dim):
        raise BadDimError(f"expected shape {(dim, dim)} for {qubits_total} qubits, got {m.shape}")
    if not isinstance(keep, (tuple, frozenset)):
        try:
            keep = tuple(keep)
        except TypeError:
            raise BadIndexError(f"keep must be a set of qubit numbers, got {keep!r}") from None
    lead = m.shape[:-2]
    try:
        perm, dim_keep, dim_traced = _trace_plan(len(lead), qubits_total, keep)
    except TypeError:  # the cache cannot hash an entry such as a list
        raise BadIndexError(_NOT_WHOLE.format(list(keep))) from None
    if not np.isfinite(m).all():
        raise BadDimError("partial trace input has a non-finite entry")
    tensor = m.reshape(lead + (2,) * (2 * qubits_total)).transpose(perm)
    tensor = tensor.reshape(lead + (dim_keep, dim_keep, dim_traced, dim_traced))
    with np.errstate(over="ignore"):  # a traced-out sum beyond float range is inf
        reduced = np.trace(tensor, axis1=-2, axis2=-1)
    if np.isinf(reduced).any():
        raise BadDimError("partial trace has an entry beyond float range")
    return reduced


_NOT_WHOLE = "keep set entries must be whole numbers, got {}"


@functools.lru_cache(maxsize=256)
def _trace_plan(lead: int, qubits_total: int, keep: tuple | frozenset) -> tuple:
    """The checks of ``partial_trace``'s ``keep`` and, for a stack of
    ``lead`` leading axes, the axis permutation of its (lead, row qubits,
    column qubits) tensor that puts the kept qubits first, with the kept and
    traced dimensions. A rejected ``keep`` raises on every call, since
    ``lru_cache`` keeps no exception."""
    if not all(_whole(q) for q in keep):
        raise BadIndexError(_NOT_WHOLE.format(list(keep)))
    keep_set = set(int(q) for q in keep)
    if not keep_set:
        raise BadIndexError("keep set is empty")
    if not keep_set <= set(range(1, qubits_total + 1)):
        raise BadIndexError(f"keep set {sorted(keep_set)} not within 1..{qubits_total}")
    if len(keep_set) == qubits_total:
        raise BadIndexError("keep set must be a strict subset; nothing to trace out")

    # Axes of the (lead, row qubits, column qubits) tensor.
    row = lead
    col = lead + qubits_total
    kept = [q - 1 for q in sorted(keep_set)]
    traced = [q for q in range(qubits_total) if q not in kept]
    perm = (
        list(range(lead))
        + [row + q for q in kept]
        + [col + q for q in kept]
        + [row + q for q in traced]
        + [col + q for q in traced]
    )
    return tuple(perm), 2 ** len(kept), 2 ** len(traced)


def _whole(q) -> bool:
    """True for an int, or a real number equal to one (2.0 is; 1.5, NaN and "2" are not)."""
    real = isinstance(q, numbers.Real)
    return isinstance(q, numbers.Integral) or (real and float(q).is_integer())


def partial_transpose(m: np.ndarray, subsystem: str) -> np.ndarray:
    """Transpose one qubit of a two-qubit operator (``"first"`` or ``"second"``)."""
    m = complex_array(m, BadDimError)
    if m.shape[-2:] != (4, 4):
        raise BadDimError(f"partial transpose is defined for 4x4 matrices, got {m.shape}")
    if subsystem not in ("first", "second"):
        raise BadIndexError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    if not np.isfinite(m).all():
        raise BadDimError("partial transpose input has a non-finite entry")
    tensor = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    swapped = tensor.swapaxes(-4, -2) if subsystem == "first" else tensor.swapaxes(-3, -1)
    return swapped.reshape(m.shape)


def trace_norm(m: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    values = np.abs(hermitian_eigvals(m))
    with np.errstate(over="ignore"):  # a sum beyond float range is inf
        return float(_in_range(values.sum(), "trace norm"))

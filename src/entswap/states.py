"""Constructors for the specific states the swapping protocol works with.

State vectors are plain complex ndarrays of length 2**qubits, unit norm,
indexed with qubit 1 as the most significant bit (see ``linalg``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAStateError, check_index, check_qubits, check_unit, complex_array
from .linalg import freeze, invariant_residuals, kron

# Density-matrix invariants: Hermitian and unit trace within STATE_ATOL,
# eigenvalues no lower than -STATE_ATOL.
STATE_ATOL = 1e-10

_SQRT2 = np.sqrt(2.0)


def _residuals(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per matrix of a complex (..., d, d) stack: finite or not, the Hermitian
    residual, the trace and the smallest eigenvalue, or None for the whole
    stack where ``_floor`` shows that no eigenvalue is below -STATE_ATOL."""
    finite, m, herm, sym = invariant_residuals(m)
    with np.errstate(over="ignore"):  # a trace beyond float range fails as inf
        trace = m.diagonal(0, -2, -1).sum(axis=-1)
    return finite, herm, trace, _floor(sym)


def _floor(sym: np.ndarray) -> np.ndarray | None:
    """None if one Cholesky factorization of the Hermitian stack ``sym`` plus
    (STATE_ATOL / 2) I succeeds: every eigenvalue is then at least
    -STATE_ATOL / 2, up to rounding of about 1e-15 of the matrix norm, far
    inside the other half of the margin for a unit-trace matrix (one that
    factors and has a huge norm fails the trace check). Else the smallest
    eigenvalue of each matrix, which flags and words a failure."""
    try:
        np.linalg.cholesky(sym + STATE_ATOL / 2 * np.eye(sym.shape[-1]))
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(sym)[..., 0]
    return None


def _passes(finite, herm, tr, low) -> tuple[np.ndarray, ...]:
    """The four checks, in order, from ``_residuals``: finite, Hermitian and
    of unit trace within STATE_ATOL, no eigenvalue below -STATE_ATOL."""
    above = np.full(finite.shape, True) if low is None else low >= -STATE_ATOL
    return finite, herm <= STATE_ATOL, np.abs(tr - 1.0) <= STATE_ATOL, above


def one_matrix(matrix) -> np.ndarray:
    """``matrix`` as a complex array, or NotAStateError unless it has two axes:
    ``check_density_matrix`` takes stacks, but a stack, even of one, is no state."""
    m = complex_array(matrix, NotAStateError)
    if m.ndim != 2:
        raise NotAStateError(f"expected one matrix, got an array of shape {m.shape}")
    return m


def check_density_matrix(matrix: np.ndarray, qubits: int) -> np.ndarray:
    """Validate a density matrix, or a (..., d, d) stack of them, returning it
    as a complex ndarray.

    Raises NotAStateError if a matrix has a non-finite entry, is not
    Hermitian within STATE_ATOL, its trace is not 1 within STATE_ATOL, or any
    eigenvalue is below -STATE_ATOL. In a stack, the first failing matrix in
    C order is named, with the message it would raise alone.
    """
    m = complex_array(matrix, NotAStateError)
    dim = 2 ** check_qubits(qubits, NotAStateError)
    if m.shape[-2:] != (dim, dim):
        raise NotAStateError(f"expected a {dim}x{dim} matrix for {qubits} qubits, got {m.shape}")
    finite, herm, tr, low = _residuals(m)
    passes = _passes(finite, herm, tr, low)
    ok = np.logical_and.reduce(passes)
    if ok.all():
        return m
    first = np.unravel_index(np.argmin(ok), np.shape(ok))
    failed = [bool(p[first]) for p in passes].index(False)
    if failed == 3:  # only the eigenvalue path fails the floor, so ``low`` is set
        raise NotAStateError(f"negative eigenvalue {low[first]:.3e}")
    raise NotAStateError((
        "non-finite entry",
        f"not Hermitian: residual {herm[first]:.3e}",
        f"trace is {complex(tr[first]):.12g}, expected 1",
    )[failed])


def is_density_matrix(stack: np.ndarray) -> np.ndarray:
    """The checks of ``check_density_matrix`` on a (..., d, d) stack at once.

    Returns a boolean array of the stack's leading shape, True where the
    matrix is finite, Hermitian and of unit trace within STATE_ATOL and has
    no eigenvalue below -STATE_ATOL.
    """
    return np.logical_and.reduce(_passes(*_residuals(complex_array(stack, NotAStateError))))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian matrix tagged with its qubit count.

    The wrapped array is validated on construction and frozen; instances
    behave like arrays under ``np.asarray``.
    """

    qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = check_density_matrix(one_matrix(self.matrix), self.qubits)
        object.__setattr__(self, "matrix", freeze(m))

    def __reduce__(self):
        # Pickles and copies are rebuilt by the initializer: checked and frozen.
        return type(self), (self.qubits, self.matrix)

    @classmethod
    def _checked(cls, qubits: int, m: np.ndarray) -> DensityMatrix:
        """Wrap a matrix that ``check_density_matrix`` has already passed,
        frozen with ``linalg.freeze``, so a view of a frozen stack is shared."""
        state = object.__new__(cls)
        object.__setattr__(state, "qubits", qubits)
        object.__setattr__(state, "matrix", freeze(m))
        return state

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.matrix, dtype=dtype)


def pure_density_matrix(amplitudes: np.ndarray) -> DensityMatrix:
    """Rank-1 density matrix |v><v| from a unit-norm amplitude vector."""
    v = complex_array(amplitudes, NotAStateError)
    if not v.size or v.size & (v.size - 1):
        raise NotAStateError(f"amplitude vector length {v.size} is not a power of two")
    # Products beyond float range fail the state checks as non-finite entries.
    with np.errstate(over="ignore", invalid="ignore"):
        outer = np.outer(v, v.conj())
    return DensityMatrix(v.size.bit_length() - 1, outer)


def bell_state(k: int) -> np.ndarray:
    """One of the four Bell vectors, ordered as

    1: (|00> + |11>)/sqrt2    2: (|00> - |11>)/sqrt2
    3: (|01> + |10>)/sqrt2    4: (|01> - |10>)/sqrt2
    """
    rows = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
    return np.array(rows[check_index("Bell index", k, 4) - 1], dtype=complex) / _SQRT2


def werner_state(w: float, k: int) -> DensityMatrix:
    """Bell state k mixed with white noise: w |b_k><b_k| + (1-w)/4 * I."""
    check_unit("mixing weight", w)
    v = bell_state(k)
    matrix = w * np.outer(v, v.conj()) + (1.0 - w) / 4.0 * np.eye(4)
    return DensityMatrix(2, matrix)


def lambda_amplitudes(lam) -> tuple:
    """The amplitudes a = sqrt(1 - sqrt(1-lam))/sqrt2 and b = sqrt(1 + sqrt(1-lam))/sqrt2
    of ``lambda_basis``, elementwise; ``lam`` is not checked."""
    root = np.sqrt(1.0 - lam)
    return np.sqrt(1.0 - root) / _SQRT2, np.sqrt(1.0 + root) / _SQRT2


def lambda_basis_rows(lam) -> np.ndarray:
    """Members 1-4 of ``lambda_basis`` as the rows of a (..., 4, 4) array, one
    per sharpness, filled in place; ``lam`` is not checked."""
    a, b = lambda_amplitudes(lam)
    rows = np.zeros(np.shape(a) + (4, 4), dtype=complex)
    # Columns 0-3 are |00>, |01>, |10>, |11>.
    rows[..., 0, 0] = rows[..., 1, 3] = rows[..., 2, 1] = rows[..., 3, 2] = a
    rows[..., 1, 0] = rows[..., 3, 1] = b
    rows[..., 0, 3] = rows[..., 2, 2] = -b
    return rows


def lambda_basis(lam: float, k: int) -> np.ndarray:
    """Member k of the sharpness-parameterized orthonormal basis, the
    one-point view of ``lambda_basis_rows``. With a and b from ``lambda_amplitudes``:

    1: a|00> - b|11>    2: b|00> + a|11>
    3: a|01> - b|10>    4: b|01> + a|10>
    """
    check_unit("sharpness", lam)
    return lambda_basis_rows(lam)[check_index("basis index", k, 4) - 1]


def product_basis(k: int) -> np.ndarray:
    """Computational product vectors in the order |00>, |11>, |01>, |10>."""
    v = np.zeros(4, dtype=complex)
    v[(0, 3, 1, 2)[check_index("basis index", k, 4) - 1]] = 1.0
    return v


@functools.cache
def initial_four_qubit() -> DensityMatrix:
    """The protocol's initial state: Bell pair on (1,2) times Bell pair on (3,4).

    Built once; every call returns the same frozen, read-only state.
    """
    vec = kron(bell_state(1), bell_state(1))
    return pure_density_matrix(vec)

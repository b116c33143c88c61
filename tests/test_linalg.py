import itertools

import numpy as np
import pytest

from entswap import (
    BadDimError,
    BadIndexError,
    NotHermitianError,
    NotPsdError,
    bell_state,
    hermitian_eig,
    initial_four_qubit,
    kron,
    partial_trace,
    partial_transpose,
    psd_sqrt,
    trace_norm,
    werner_bell_povm,
)
from entswap import linalg
from helpers import partial_trace_reference, random_density_matrix, random_hermitian, rng

I2 = np.eye(2)
I4 = np.eye(4)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BELL = np.outer(bell_state(1), bell_state(1).conj())


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), I4)


def test_kron_pauli_z():
    assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_block_structure():
    top = np.array([[1, 0], [0, 0]], dtype=complex)
    out = kron(top, SIGMA_X)
    assert np.array_equal(out[:2, :2], SIGMA_X)
    assert np.all(out[2:, :] == 0) and np.all(out[:, 2:] == 0)


def test_kron_associative_exactly():
    # integer-valued entries keep float products exact
    gen = rng(1)
    a, b, c = (gen.integers(-4, 5, size=(2, 2)).astype(complex) for _ in range(3))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_hermitian_eig_diagonal():
    eig = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [1, 2, 3], atol=0)


def test_hermitian_eig_pauli_x():
    eig = hermitian_eig(SIGMA_X)
    assert np.allclose(eig.eigenvalues, [-1, 1], atol=1e-15)


def test_hermitian_eig_reconstruction_random():
    gen = rng(2)
    for _ in range(10):
        m = random_hermitian(gen, dim=8)
        eig = hermitian_eig(m)
        v = eig.eigenvectors
        rebuilt = (v * eig.eigenvalues) @ v.conj().T
        assert np.abs(rebuilt - m).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10


def test_hermitian_eig_bell_partial_transpose():
    # direct-sum structure puts the single negative eigenvalue at -1/2
    eig = hermitian_eig(partial_transpose(BELL, "second"))
    assert abs(eig.eigenvalues[0] + 0.5) < 1e-12


def test_hermitian_eig_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_scalar_matrix():
    assert np.allclose(psd_sqrt(I4 / 4), I4 / 2, atol=1e-14)


def test_psd_sqrt_projector_fixed_point():
    assert np.abs(psd_sqrt(BELL) - BELL).max() < 1e-12


def test_psd_sqrt_squares_back():
    effect = werner_bell_povm(0.5).effects[0]
    root = psd_sqrt(effect)
    assert np.abs(root @ root - effect).max() < 1e-12
    gen = rng(3)
    for _ in range(5):
        m = random_density_matrix(gen, dim=8) * 3.0
        root = psd_sqrt(m)
        assert np.abs(root @ root - m).max() < 1e-9


def test_psd_sqrt_clamps_tiny_negative():
    m = np.diag([1.0, -5e-11])
    root = psd_sqrt(m)
    assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -1e-6]))


def test_partial_trace_bell_marginal():
    assert np.abs(partial_trace(BELL, 2, {1}) - I2 / 2).max() < 1e-15


def test_partial_trace_initial_state_middle_pair():
    rho0 = np.asarray(initial_four_qubit())
    assert np.abs(partial_trace(rho0, 4, {1, 4}) - I4 / 4).max() < 1e-15


def test_partial_trace_preserves_trace():
    gen = rng(4)
    m = random_density_matrix(gen, dim=16)
    reduced = partial_trace(m, 4, {2, 3})
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_composes():
    gen = rng(5)
    m = random_density_matrix(gen, dim=16)
    two_step = partial_trace(partial_trace(m, 4, {1, 2}), 2, {1})
    one_step = partial_trace(m, 4, {1})
    assert np.abs(two_step - one_step).max() < 1e-12


@pytest.mark.parametrize("keep", [set(), {0}, {5}, {1, 2, 3, 4}])
def test_partial_trace_bad_keep(keep):
    with pytest.raises(BadIndexError):
        partial_trace(np.eye(16) / 16, 4, keep)


def _spellings(keep: tuple):
    """The same keep set as a list, a tuple (also reversed), a set, a
    frozenset and a generator."""
    return [list(keep), keep, keep[::-1], set(keep), frozenset(keep), (q for q in keep)]


@pytest.mark.parametrize("qubits", [2, 3, 4])
def test_partial_trace_matches_the_uncached_reference_bitwise(qubits):
    gen = rng(20 + qubits)
    dim = 2**qubits
    single = random_density_matrix(gen, dim=dim)
    stack = np.array([random_density_matrix(gen, dim=dim) for _ in range(6)]).reshape(2, 3, dim, dim)
    for size in range(1, qubits):
        for keep in itertools.combinations(range(1, qubits + 1), size):
            for m in (single, stack):
                want = partial_trace_reference(m, qubits, keep)
                for spelled in _spellings(keep):
                    got = partial_trace(m, qubits, spelled)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (keep, spelled)


def test_partial_trace_reuses_its_plan():
    m = np.eye(16) / 16
    partial_trace(m, 4, (2, 3))
    hits = linalg._trace_plan.cache_info().hits
    partial_trace(m, 4, (2, 3))
    assert linalg._trace_plan.cache_info().hits == hits + 1


@pytest.mark.parametrize("keep", [(), (0,), (5,), (1, 2, 3, 4), (1, 2, 3, 4, 4)])
def test_partial_trace_rejects_a_bad_keep_on_every_call(keep):
    for m in [np.eye(16) / 16, np.stack([np.eye(16) / 16] * 3)] * 3:
        for spelled in _spellings(keep):
            with pytest.raises(BadIndexError):
                partial_trace(m, 4, spelled)


def test_partial_trace_bad_shape():
    with pytest.raises(BadDimError):
        partial_trace(np.eye(8), 4, {1})


def test_partial_transpose_diagonal_fixed_point():
    assert np.array_equal(partial_transpose(I4 / 4, "second"), I4 / 4)


def test_partial_transpose_bell_spectrum():
    eigs = np.linalg.eigvalsh(partial_transpose(BELL, "second"))
    assert np.allclose(sorted(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("subsystem", ["first", "second"])
def test_partial_transpose_involution(subsystem):
    gen = rng(6)
    m = random_density_matrix(gen, dim=4)
    assert np.array_equal(partial_transpose(partial_transpose(m, subsystem), subsystem), m)


def test_partial_transpose_bad_inputs():
    with pytest.raises(BadDimError):
        partial_transpose(np.eye(8), "second")
    with pytest.raises(BadIndexError):
        partial_transpose(I4, "third")


def test_trace_norm_values():
    assert abs(trace_norm(I4 / 4) - 1.0) < 1e-15
    assert abs(trace_norm(partial_transpose(BELL, "second")) - 2.0) < 1e-12
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-15


def test_trace_norm_bounds_trace():
    gen = rng(7)
    m = random_hermitian(gen, dim=4)
    assert trace_norm(m) >= abs(np.trace(m).real) - 1e-12


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("keep", [{1}, {2, 3}, {1, 4}, {1, 2}, {3, 4}, {1, 3, 4}])
def test_partial_trace_stack_matches_each_matrix(keep):
    gen = rng(6)
    stack = np.array([[random_density_matrix(gen, dim=16) for _ in range(3)] for _ in range(2)])
    reduced = partial_trace(stack, 4, keep)
    assert reduced.shape == (2, 3) + (2 ** len(keep),) * 2
    for index in np.ndindex(2, 3):
        assert np.array_equal(reduced[index], partial_trace(stack[index], 4, keep))
    with pytest.raises(BadDimError):
        partial_trace(stack[..., :8], 4, keep)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("solver", [psd_sqrt, hermitian_eig, linalg.hermitian_eigvals, trace_norm])
def test_eigensolvers_reject_non_finite_entries(solver, entry):
    for row, column in ((0, 0), (0, 1)):
        m = I4.astype(complex)
        m[row, column] = entry
        with pytest.raises(NotHermitianError, match="matrix has a non-finite entry"):
            solver(m)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("call, name", [
    (lambda m: partial_trace(m, 2, [1]), "partial trace"),
    (lambda m: partial_transpose(m, "first"), "partial transpose"),
], ids=["partial_trace", "partial_transpose"])
def test_partial_maps_reject_non_finite_entries(call, name, entry):
    for row, column in ((0, 0), (0, 1)):
        m = I4.astype(complex)
        m[row, column] = entry
        stack = np.stack([I4, m]).astype(complex)
        for matrix in (m, stack):
            with pytest.raises(BadDimError, match=f"^{name} input has a non-finite entry$"):
                call(matrix)


def test_psd_sqrt_rejects_a_matrix_that_is_not_square():
    with pytest.raises(BadDimError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        psd_sqrt(np.ones((2, 3)))


def test_finite_asymmetry_keeps_its_message():
    with pytest.raises(NotHermitianError, match=r"deviates from Hermitian by 1.000e\+00"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    BadIndexError,
    BadParamError,
    DensityMatrix,
    NotAStateError,
    bell_state,
    initial_four_qubit,
    lambda_basis,
    negativity,
    partial_trace,
    product_basis,
    pure_density_matrix,
    run_swap,
    werner_bell_povm,
    werner_state,
)
from entswap.measures import report_stack

SQRT2 = np.sqrt(2.0)


def test_bell_state_amplitudes():
    assert np.allclose(bell_state(1), [1 / SQRT2, 0, 0, 1 / SQRT2], atol=0)
    assert np.allclose(bell_state(4), [0, 1 / SQRT2, -1 / SQRT2, 0], atol=0)


def test_bell_states_orthonormal():
    for i in range(1, 5):
        for j in range(1, 5):
            overlap = np.vdot(bell_state(i), bell_state(j))
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-15


@pytest.mark.parametrize("k", [0, 5, -1])
def test_bell_state_bad_index(k):
    with pytest.raises(BadIndexError):
        bell_state(k)


def test_werner_state_limits():
    assert np.allclose(np.asarray(werner_state(0.0, 1)), np.eye(4) / 4, atol=0)
    v = bell_state(1)
    assert np.abs(np.asarray(werner_state(1.0, 1)) - np.outer(v, v.conj())).max() < 1e-15


def test_werner_state_equal_entanglement_point():
    for k in range(1, 5):
        assert abs(negativity(werner_state(2 / 3, k)) - 0.5) < 1e-12


@pytest.mark.parametrize("w", [-0.1, 1.1])
def test_werner_state_bad_weight(w):
    with pytest.raises(BadParamError):
        werner_state(w, 1)


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(NotAStateError):
        DensityMatrix(2, np.eye(4))  # trace 4
    with pytest.raises(NotAStateError):
        DensityMatrix(2, np.diag([1.5, -0.5, 0, 0]))  # negative eigenvalue
    skew = np.eye(4) / 4 + 1e-6 * np.array([[0, 1, 0, 0]] + [[0] * 4] * 3)
    with pytest.raises(NotAStateError):
        DensityMatrix(2, skew)  # not Hermitian
    with pytest.raises(NotAStateError):
        DensityMatrix(1, np.eye(4) / 4)  # qubit count mismatch


def test_density_matrix_is_frozen():
    rho = werner_state(0.5, 1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_lambda_basis_limits():
    assert np.allclose(lambda_basis(1.0, 1), np.array([1, 0, 0, -1]) / SQRT2, atol=1e-15)
    assert np.allclose(lambda_basis(0.0, 1), [0, 0, 0, -1], atol=0)


def test_lambda_basis_orthogonal_pair():
    v1, v2 = lambda_basis(0.37, 1), lambda_basis(0.37, 2)
    assert abs(np.vdot(v1, v2)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_lambda_basis_complete_and_normalized(lam):
    total = np.zeros((4, 4), dtype=complex)
    for k in range(1, 5):
        v = lambda_basis(lam, k)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        total += np.outer(v, v.conj())
    assert np.abs(total - np.eye(4)).max() < 1e-12


def test_lambda_basis_bad_params():
    with pytest.raises(BadParamError):
        lambda_basis(1.2, 1)
    with pytest.raises(BadIndexError):
        lambda_basis(0.5, 0)


def test_product_basis_order():
    assert np.array_equal(product_basis(1), [1, 0, 0, 0])
    assert np.array_equal(product_basis(2), [0, 0, 0, 1])
    assert np.array_equal(product_basis(3), [0, 1, 0, 0])
    assert np.array_equal(product_basis(4), [0, 0, 1, 0])
    with pytest.raises(BadIndexError):
        product_basis(7)


def test_initial_four_qubit_marginals():
    rho0 = initial_four_qubit()
    m = np.asarray(rho0)
    assert rho0.qubits == 4
    assert np.abs(partial_trace(m, 4, {1}) - np.eye(2) / 2).max() < 1e-15
    assert np.abs(partial_trace(m, 4, {1, 4}) - np.eye(4) / 4).max() < 1e-15
    assert abs(np.trace(m @ m).real - 1.0) < 1e-12  # pure


def test_pure_density_matrix_bad_length():
    with pytest.raises(NotAStateError):
        pure_density_matrix(np.ones(3) / np.sqrt(3))


def test_is_density_matrix_agrees_with_check():
    from entswap.errors import NotAStateError
    from entswap.states import check_density_matrix, is_density_matrix
    from helpers import random_density_matrix, rng

    gen = rng(12)
    good = random_density_matrix(gen)
    skew = good.copy()
    skew[0, 1] += 1e-6
    nan_state = good.copy()
    nan_state[2, 1] = float("nan")
    inf_state = good.copy()
    inf_state[3, 3] = float("inf")
    # Unit trace, but (m + m^dagger)/2 overflows if summed before halving.
    huge = np.diag([1.7e308, -1.7e308, 1.0, 0.0])
    stack = np.array(
        [good, 1.01 * good, np.diag([1.1, -0.1, 0, 0]), skew, np.eye(4) / 4]
        + [nan_state, inf_state, huge]
    )
    expected = []
    for m in stack:
        try:
            check_density_matrix(m, 2)
            expected.append(True)
        except NotAStateError:
            expected.append(False)
    assert is_density_matrix(stack).tolist() == expected
    assert expected == [True, False, False, False, True, False, False, False]
    _, ok = report_stack(stack)
    assert ok[0] and ok[4] and not ok[5:].any()


def test_check_density_matrix_messages():
    from entswap.states import check_density_matrix, is_density_matrix

    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    nan_state = good.copy()
    nan_state[0, 3] = float("nan")
    skew = good.copy()
    skew[0, 1] += 1e-6
    cases = [
        (nan_state, "non-finite entry"),
        (skew, "not Hermitian: residual 1.000e-06"),
        (1.01 * np.eye(4) / 4, "trace is 1.01+0j, expected 1"),
        (np.diag([1.1, -0.1, 0, 0]), "negative eigenvalue -1.000e-01"),
    ]
    for matrix, message in cases:
        with pytest.raises(NotAStateError) as info:
            check_density_matrix(matrix, 2)
        assert str(info.value) == message
    with pytest.raises(NotAStateError) as info:
        check_density_matrix(np.eye(2) / 2, 2)
    assert str(info.value) == "expected a 4x4 matrix for 2 qubits, got (2, 2)"
    assert np.array_equal(check_density_matrix(good, 2), good)
    # The non-finite case of the stacked check is in the test above.
    stack = np.array([good] + [matrix for matrix, _ in cases[1:]])
    assert is_density_matrix(stack).tolist() == [True, False, False, False]


def test_check_density_matrix_on_a_stack_names_the_first_bad_matrix():
    from entswap.states import check_density_matrix

    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    nan_state = good.copy()
    nan_state[0, 3] = float("nan")
    skew = good.copy()
    skew[0, 1] += 1e-6
    bad = [
        (nan_state, "non-finite entry"),
        (skew, "not Hermitian: residual 1.000e-06"),
        (1.01 * np.eye(4) / 4, "trace is 1.01+0j, expected 1"),
        (np.diag([1.1, -0.1, 0, 0]), "negative eigenvalue -1.000e-01"),
    ]
    stack = np.array([[good, np.eye(4) / 4, good]] * 2)
    assert check_density_matrix(stack, 2) is stack
    for (first, message), (second, _) in zip(bad, bad[1:] + bad[:1]):
        # C order: (0, 2) comes before (1, 0).
        stack = np.array([[good, good, first], [second, good, good]])
        with pytest.raises(NotAStateError) as info:
            check_density_matrix(stack, 2)
        assert str(info.value) == message
    with pytest.raises(NotAStateError, match=r"got \(2, 4, 2\)"):
        check_density_matrix(np.zeros((2, 4, 2)), 2)


def test_initial_four_qubit_is_one_read_only_state():
    rho0 = initial_four_qubit()
    assert initial_four_qubit() is rho0
    assert not rho0.matrix.flags.writeable
    with pytest.raises(ValueError):
        rho0.matrix[0, 0] = 0.0


def _round_trips(obj):
    return [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]


def test_pickles_and_copies_stay_frozen():
    state = werner_state(0.5, 1)
    for twin in _round_trips(state):
        assert not twin.matrix.flags.writeable
        assert twin.qubits == 2 and twin.matrix.tobytes() == state.matrix.tobytes()
    povm = werner_bell_povm(0.3)
    for twin in _round_trips(povm):
        assert twin.label == povm.label
        for effect, original in zip(twin.effects, povm.effects, strict=True):
            assert not effect.flags.writeable and effect.tobytes() == original.tobytes()
    outcome = run_swap(povm)[0]
    for twin in _round_trips(outcome):
        assert twin.probability == outcome.probability
        for pair in ("14", "12", "34"):
            matrix = twin.pair_state(pair).matrix
            assert not matrix.flags.writeable
            assert matrix.tobytes() == outcome.pair_state(pair).matrix.tobytes()


class _NonHermitianPickle:
    """Pickles as a DensityMatrix whose matrix is not Hermitian."""

    def __reduce__(self):
        matrix = np.eye(4, dtype=complex) / 4
        matrix[0, 1] = 0.1
        return DensityMatrix, (2, matrix)


def test_loading_a_pickled_non_hermitian_matrix_raises():
    with pytest.raises(NotAStateError, match="not Hermitian"):
        pickle.loads(pickle.dumps(_NonHermitianPickle()))

"""Every scalar, index, grid or matrix parameter gives an EntswapError or a
valid result, never a raw TypeError, ValueError or AttributeError, and no
warning."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entswap import (
    BadDimError,
    BadIndexError,
    BadParamError,
    DensityMatrix,
    EntswapError,
    HermitianEig,
    InvalidPovmError,
    NonMonotoneWarning,
    NotAStateError,
    NotHermitianError,
    Povm,
    SweepConfig,
    asymmetric_povm,
    bell_nonlocality,
    bell_state,
    case1_closed_forms,
    case2_closed_forms,
    classify_table,
    correlation_spectrum,
    effect_entanglement,
    find_extremum,
    find_threshold,
    hermitian_eig,
    kron,
    lambda_basis,
    negativity,
    partial_trace,
    partial_transpose,
    povm_from_dict,
    povm_to_dict,
    product_basis,
    psd_sqrt,
    pure_density_matrix,
    report,
    rho14_spectral,
    run_swap,
    s_of_lambda,
    steering3,
    sweep,
    trace_norm,
    verify,
    werner_bell_povm,
    werner_state,
)
from entswap.povm import validate

GRID = np.linspace(0.0, 1.0, 5)
STATE = werner_state(0.5, 1)
POVM = werner_bell_povm(0.5)
OUTCOME = run_swap(POVM)[0]

# Each scalar parameter with the calls that take it, the value in for v.
CALLS = {
    "sharpness": [
        lambda v: werner_bell_povm(v),
        lambda v: asymmetric_povm(0.3, v),
        lambda v: s_of_lambda(v),
        lambda v: case1_closed_forms(v),
        lambda v: case2_closed_forms(0.3, v),
        lambda v: lambda_basis(v, 1),
    ],
    "x": [
        lambda v: asymmetric_povm(v, 0.5),
        lambda v: case2_closed_forms(v, 0.5),
        lambda v: verify("II", v, GRID),
        lambda v: classify_table("II", v, GRID),
        lambda v: find_extremum("II", v, "14", "negativity", GRID),
        lambda v: find_threshold("II", v, "12", "negativity", (0.0, 1.0)),
    ],
    "mixing weight": [lambda v: werner_state(v, 1)],
    "tol": [
        lambda v: report(STATE, tol=v),
        lambda v: SweepConfig(case="I", tol=v),
        lambda v: classify_table("I", grid=GRID, tol=v),
        lambda v: find_threshold("I", None, "14", "negativity", (0.2, 0.9), tol=v),
    ],
    "root_tol": [lambda v: classify_table("I", grid=GRID, root_tol=v)],
    "pair": [
        lambda v: OUTCOME.pair_state(v),
        lambda v: case1_closed_forms(0.5).report(v),
        lambda v: case2_closed_forms(0.3, 0.5).report(v),
        lambda v: find_threshold("I", None, v, "negativity", (0.2, 0.9)),
        lambda v: find_extremum("I", None, v, "negativity", GRID),
    ],
    "measure": [
        lambda v: find_threshold("I", None, "14", v, (0.2, 0.9)),
        lambda v: find_extremum("I", None, "14", v, GRID),
    ],
    "lambda_start": [lambda v: SweepConfig(case="I", lambda_start=v)],
    "lambda_stop": [lambda v: SweepConfig(case="I", lambda_stop=v)],
    "count": [lambda v: SweepConfig(case="I", count=v)],
    "pipeline": [lambda v: SweepConfig(case="I", pipeline=v)],
    "index": [
        lambda v: bell_state(v),
        lambda v: product_basis(v),
        lambda v: lambda_basis(0.5, v),
        lambda v: werner_state(0.5, v),
        lambda v: rho14_spectral(POVM, v),
        lambda v: effect_entanglement(POVM, v),
    ],
    "case": [
        lambda v: SweepConfig(case=v),
        lambda v: verify(v, grid=GRID),
        lambda v: classify_table(v, grid=GRID),
        lambda v: find_extremum(v, None, "14", "negativity", GRID),
        lambda v: find_threshold(v, None, "14", "negativity", (0.2, 0.9)),
    ],
}


@settings(max_examples=25, deadline=None)
@given(value=st.floats())
@example(value=float("nan"))
@example(value=float("inf"))
@example(value=float("-inf"))
@example(value=1e308)
@example(value=-0.0)
@example(value=True)
@example(value="0.5")
@example(value=[0.5])
@example(value=np.float32(0.5))
@example(value=np.array([0.5, 0.6]))
@example(value=np.array([1, 2]))
@example(value=np.array([0.5]))
@example(value=1.5)
def test_scalar_parameters_raise_only_entswap_errors(value):
    for name, calls in CALLS.items():
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", NonMonotoneWarning)
                try:
                    call(value)
                except EntswapError:
                    pass
                except Exception as exc:
                    raise AssertionError(f"{name}={value!r}: {exc!r}") from exc


@pytest.mark.parametrize("value, shown", [("0.5", "'0.5'"), (np.array([0.5]), "array([0.5])")])
def test_an_x_that_is_no_number_is_rejected_by_its_repr(value, shown):
    calls = CALLS["x"] + [lambda v: sweep(SweepConfig(case="II", x=v, count=5))]
    message = rf"^x must be in \[0, 1\], got {re.escape(shown)}$"
    for call in calls:
        with pytest.raises(BadParamError, match=message):
            call(value)


def test_an_index_that_is_no_number_shows_its_repr():
    for value, shown in (("1", "'1'"), (5, "5"), (1.5, "1.5"), ([1], "[1]")):
        with pytest.raises(BadIndexError, match=rf"^effect index must be 1\.\.4, got {re.escape(shown)}$"):
            rho14_spectral(POVM, value)


# Each grid-taking call, the grid in for v.
GRID_CALLS = [
    lambda v: classify_table("I", grid=v),
    lambda v: verify("I", grid=v),
    lambda v: find_extremum("I", None, "14", "negativity", v),
]


@pytest.mark.parametrize("grid", [
    ["a", "b"], ["0.5", "1"], [[0.0, 0.5], [0.5, 1.0]], [[0.0], 0.5], [0.0, None], [0.5j, 1.0],
])
def test_grids_that_are_not_one_axis_of_real_numbers_are_rejected(grid):
    for call in GRID_CALLS:
        with pytest.raises(BadParamError, match=r"^grid must be one axis of real numbers"):
            call(grid)


def test_a_grid_point_outside_the_unit_interval_is_named_in_input_order():
    # Grids are sorted after the check, so the message names 1.5, not -0.5.
    for call in GRID_CALLS:
        with pytest.raises(BadParamError, match=r"^sharpness must be in \[0, 1\], got 1\.5$"):
            call([0.5, 1.5, -0.5])


@pytest.mark.parametrize("bracket", [("a", 0.9), (0.2,), None, (0.2, 0.5, 0.9), ([0.2], [0.9])])
def test_brackets_that_are_not_a_pair_of_numbers_are_rejected(bracket):
    message = f"bracket must satisfy 0 <= lo < hi <= 1, got {bracket}"
    with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
        find_threshold("I", None, "14", "negativity", bracket)


# Each exported matrix-taking name, the matrix in for m.
MATRIX_CALLS = {
    "hermitian_eig": hermitian_eig,
    "psd_sqrt": psd_sqrt,
    "trace_norm": trace_norm,
    "kron": lambda m: kron(m, np.eye(2)),
    "partial_trace": lambda m: partial_trace(m, 2, [1]),
    "partial_transpose": lambda m: partial_transpose(m, "second"),
    "report": report,
    "negativity": negativity,
    "correlation_spectrum": correlation_spectrum,
    "steering3": steering3,
    "bell_nonlocality": bell_nonlocality,
    "DensityMatrix": lambda m: DensityMatrix(2, m),
    "pure_density_matrix": pure_density_matrix,
    "Povm": lambda m: Povm((m,)),
    "rho14_spectral": lambda m: rho14_spectral(Povm((m,)), 1),
    "effect_entanglement": lambda m: effect_entanglement(Povm((m,)), 1),
    "violations": lambda m: Povm((m,)).violations(),
}

_ANTISYMMETRIC = np.zeros((4, 4))
_ANTISYMMETRIC[0, 1], _ANTISYMMETRIC[1, 0] = 1e308, -1e308


@pytest.mark.parametrize("matrix", [
    np.full((4, 4), "a"),
    np.zeros((0, 0)),
    [[1.0, 0.0], [0.0]],
    [[10**400]],
    np.eye(4) * 1e308,
    np.full((4, 4), 1e308),
    _ANTISYMMETRIC,
], ids=["str", "empty", "ragged", "int beyond float", "huge", "huge rank 1", "huge antisymmetric"])
def test_matrix_arguments_raise_only_entswap_errors(matrix):
    for name, call in MATRIX_CALLS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(matrix)
            except EntswapError:
                continue
            except Exception as exc:
                raise AssertionError(f"{name}: {exc!r}") from exc
        assert all(np.isfinite(v).all() for v in _numbers(result)), name


def _numbers(result) -> tuple:
    """The arrays of numbers a matrix call returns; violations are messages."""
    if isinstance(result, HermitianEig):
        return result.eigenvalues, result.eigenvectors
    if isinstance(result, Povm):
        return result.effects
    return () if isinstance(result, list) else (np.asarray(result),)


# The errors of matrices beyond float range, each raised where the overflow was.
HUGE = [
    (trace_norm, np.eye(4) * 1e308, NotHermitianError, "trace norm beyond float range"),
    (lambda m: partial_trace(m, 2, [1]), np.eye(4) * 1e308, BadDimError,
     "partial trace has an entry beyond float range"),
    (lambda m: kron(m, m), np.eye(4) * 1e200, BadDimError,
     "Kronecker product has an entry beyond float range"),
    (lambda m: kron(m, np.eye(2)), np.full((4, 4), np.inf), BadDimError,
     "Kronecker factor has a non-finite entry"),
    (pure_density_matrix, [1e200, 0, 0, 1e200], NotAStateError, "non-finite entry"),
    (MATRIX_CALLS["rho14_spectral"], np.eye(4) * 1e308, InvalidPovmError,
     "effect 1: trace beyond float range"),
    (psd_sqrt, np.full((4, 4), 1e308), NotHermitianError,
     "eigenvalue beyond float range"),
    (hermitian_eig, np.full((4, 4), 1e308), NotHermitianError,
     "eigenvalue beyond float range"),
    (hermitian_eig, _ANTISYMMETRIC, NotHermitianError,
     "matrix deviates from Hermitian by inf (allowed 1e-08)"),
    (report, _ANTISYMMETRIC, NotAStateError, "not Hermitian: residual inf"),
]


@pytest.mark.parametrize("call, matrix, error, message", HUGE)
def test_matrices_beyond_float_range_raise_where_they_overflow(call, matrix, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(matrix)


def test_violations_beyond_float_range_name_no_eigenvalue_of_rounding_noise():
    assert Povm((np.full((4, 4), 1e308),)).violations()[0] == (
        "effect 1: eigenvalue beyond float range"
    )
    assert Povm((_ANTISYMMETRIC,)).violations()[0] == "effect 1: not Hermitian, residual inf"
    huge = np.eye(4) * 1e308
    assert Povm((huge, huge)).violations()[-1] == (
        "completeness: effects sum deviates from identity by inf"
    )


HALF = np.eye(4) / 4

# Each structural argument that is no array, with the error and message it raises.
STRUCTURAL = [
    (lambda: Povm(5), InvalidPovmError, "effects must be a sequence of matrices, got 5"),
    (lambda: Povm(None), InvalidPovmError, "effects must be a sequence of matrices, got None"),
    (lambda: Povm((np.eye(4),), label=5), InvalidPovmError, "'label' must be a string"),
    (lambda: run_swap(3), InvalidPovmError, "expected a Povm, got int"),
    (lambda: povm_to_dict(None), InvalidPovmError, "expected a Povm, got NoneType"),
    (lambda: rho14_spectral(3, 1), InvalidPovmError, "expected a Povm, got int"),
    (lambda: effect_entanglement("povm", 1), InvalidPovmError, "expected a Povm, got str"),
    (lambda: validate(None), InvalidPovmError, "expected a Povm, got NoneType"),
    (lambda: DensityMatrix("2", HALF), NotAStateError,
     "qubit count must be an int in 0..62, got '2'"),
    (lambda: DensityMatrix(2.0, HALF), NotAStateError,
     "qubit count must be an int in 0..62, got 2.0"),
    (lambda: DensityMatrix(-1, HALF), NotAStateError,
     "qubit count must be an int in 0..62, got -1"),
    (lambda: partial_trace(HALF, "2", [1]), BadDimError,
     "qubit count must be an int in 0..62, got '2'"),
    (lambda: partial_trace(HALF, 2, 5), BadIndexError,
     "keep must be a set of qubit numbers, got 5"),
    (lambda: partial_trace(HALF, 2, None), BadIndexError,
     "keep must be a set of qubit numbers, got None"),
    (lambda: partial_trace(HALF, 2, ["a"]), BadIndexError,
     "keep set entries must be whole numbers, got ['a']"),
    (lambda: partial_trace(HALF, 2, [1.5]), BadIndexError,
     "keep set entries must be whole numbers, got [1.5]"),
    (lambda: partial_trace(HALF, 2, ([1],)), BadIndexError,
     "keep set entries must be whole numbers, got [[1]]"),
    (lambda: DensityMatrix(20000, HALF), NotAStateError,
     "qubit count must be an int in 0..62, got 20000"),
    (lambda: partial_trace(HALF, 63, [1]), BadDimError,
     "qubit count must be an int in 0..62, got 63"),
]


@pytest.mark.parametrize("call, error, message", STRUCTURAL)
def test_structural_arguments_raise_entswap_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_whole_qubit_numbers_of_any_int_type_are_kept():
    want = partial_trace(HALF, 2, [1])
    for qubits, keep in ((np.int64(2), [1]), (2, [1.0]), (2, {np.int64(1)})):
        assert partial_trace(HALF, qubits, keep).tobytes() == want.tobytes()
    assert DensityMatrix(np.int64(2), HALF).dim == 4


def test_a_povm_label_round_trips_through_its_dict():
    povm = Povm(tuple(werner_bell_povm(0.5).effects), label="mine")
    assert povm_from_dict(povm_to_dict(povm)).label == "mine"
    with pytest.raises(InvalidPovmError, match="^'label' must be a string$"):
        povm_from_dict({**povm_to_dict(povm), "label": 5})

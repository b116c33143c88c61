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
    BadIndexError,
    BadParamError,
    DensityMatrix,
    EntswapError,
    NonMonotoneWarning,
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
    product_basis,
    psd_sqrt,
    pure_density_matrix,
    report,
    rho14_spectral,
    run_swap,
    s_of_lambda,
    steering3,
    trace_norm,
    verify,
    werner_bell_povm,
    werner_state,
)

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
}
# Sums past float range still warn in these (the trace norm, the traced-out
# blocks, the outer product of the amplitudes).
OVERFLOWING = {"trace_norm", "partial_trace", "pure_density_matrix"}


@pytest.mark.parametrize("matrix, exempt", [
    (np.full((4, 4), "a"), set()),
    (np.zeros((0, 0)), set()),
    ([[1.0, 0.0], [0.0]], set()),
    ([[10**400]], set()),
    (np.eye(4) * 1e308, OVERFLOWING),
], ids=["str", "empty", "ragged", "int beyond float", "huge"])
def test_matrix_arguments_raise_only_entswap_errors(matrix, exempt):
    for name, call in MATRIX_CALLS.items():
        if name in exempt:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(matrix)
            except EntswapError:
                pass
            except Exception as exc:
                raise AssertionError(f"{name}: {exc!r}") from exc

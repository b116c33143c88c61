"""Every scalar parameter gives an EntswapError or a valid result, never a
raw TypeError, ValueError or AttributeError, and no warning."""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entswap import (
    EntswapError,
    NonMonotoneWarning,
    SweepConfig,
    asymmetric_povm,
    case1_closed_forms,
    case2_closed_forms,
    classify_table,
    find_extremum,
    find_threshold,
    lambda_basis,
    report,
    run_swap,
    s_of_lambda,
    verify,
    werner_bell_povm,
    werner_state,
)

GRID = np.linspace(0.0, 1.0, 5)
STATE = werner_state(0.5, 1)
OUTCOME = run_swap(werner_bell_povm(0.5))[0]

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

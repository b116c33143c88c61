"""Every exported name under adversarial input.

Each call takes one odd scalar or matrix in one of its argument slots, every
warning an error, and must raise an ``EntswapError`` or return a finite,
valid result. The odd values are fixed lists (NaN, infinities, 1e308, -0.0,
bool, str, list, float32, 0-d and one-entry arrays, ints beyond float range;
wrong shapes, stacks, empty, str, ragged, huge and non-finite matrices) and
hypothesis draws, with a fixed ``max_examples``. A custom ``sweep`` builder
that fails at one grid point must reach the caller with its own error, or
``validate``'s, prefixed by that point.
"""

import cmath
import dataclasses
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entswap
from entswap import (
    AsymmetricPovmParams,
    BadParamError,
    CorrelationReport,
    DensityMatrix,
    EntswapError,
    InvalidPovmError,
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
    initial_four_qubit,
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
    steering2,
    steering3,
    sweep,
    trace_norm,
    verify,
    werner_bell_povm,
    werner_state,
)
from entswap.povm import validate

NAN, INF = float("nan"), float("inf")
I2, I4 = np.eye(2), np.eye(4)
HALF = I4 / 4
GRID = np.linspace(0.0, 1.0, 5)
POVM = werner_bell_povm(0.5)
OUTCOME = run_swap(POVM)[0]
CASE1, CASE2 = case1_closed_forms(0.5), case2_closed_forms(0.3, 0.5)

ODD_SCALARS = [
    NAN, INF, -INF, 1e308, -1e308, -0.0, 0.0, 1.0, 1.5, -1, 2, True, False,
    "0.5", "", [0.5], (0.5,), None, 0.5 + 0j, np.float32(0.5), np.float32(NAN),
    np.array(0.5), np.array([0.5]), np.array([0.5, 0.6]), 10**400, -(10**400),
]

# Each exported name with its calls, the odd scalar in for v in one slot.
SCALAR_CALLS = {
    "werner_bell_povm": [werner_bell_povm],
    "asymmetric_povm": [lambda v: asymmetric_povm(v, 0.5), lambda v: asymmetric_povm(0.3, v)],
    "AsymmetricPovmParams": [
        lambda v: AsymmetricPovmParams(v, 0.5), lambda v: AsymmetricPovmParams(0.3, v),
    ],
    "s_of_lambda": [s_of_lambda],
    "case1_closed_forms": [case1_closed_forms],
    "case2_closed_forms": [lambda v: case2_closed_forms(v, 0.5), lambda v: case2_closed_forms(0.3, v)],
    "Case1ClosedForms": [
        lambda v: CASE1.quantities(v), lambda v: CASE1.report(v), lambda v: CASE1.report("14", v),
    ],
    "Case2ClosedForms": [
        lambda v: CASE2.quantities(v), lambda v: CASE2.report(v), lambda v: CASE2.report("12", v),
    ],
    "CorrelationReport": [
        lambda v: CorrelationReport.from_quantities(v, 0.5, 0.75),
        lambda v: CorrelationReport.from_quantities(0.5, v, 0.75),
        lambda v: CorrelationReport.from_quantities(0.5, 0.5, v),
        lambda v: CorrelationReport.from_quantities(0.5, 0.5, 0.75, v),
    ],
    "report": [lambda v: report(HALF, tol=v)],
    "bell_state": [bell_state],
    "product_basis": [product_basis],
    "lambda_basis": [lambda v: lambda_basis(v, 1), lambda v: lambda_basis(0.5, v)],
    "werner_state": [lambda v: werner_state(v, 1), lambda v: werner_state(0.5, v)],
    "DensityMatrix": [lambda v: DensityMatrix(v, HALF)],
    "SwapOutcome": [lambda v: OUTCOME.pair_state(v)],
    "rho14_spectral": [lambda v: rho14_spectral(POVM, v), lambda v: rho14_spectral(v, 1)],
    "effect_entanglement": [lambda v: effect_entanglement(POVM, v)],
    "partial_trace": [
        lambda v: partial_trace(HALF, v, [1]), lambda v: partial_trace(HALF, 2, v),
        lambda v: partial_trace(HALF, 2, [v]),
    ],
    "partial_transpose": [lambda v: partial_transpose(HALF, v)],
    "Povm": [Povm, lambda v: Povm(POVM.effects, label=v), lambda v: Povm((I4, v))],
    "run_swap": [run_swap],
    "povm_to_dict": [povm_to_dict],
    "povm_from_dict": [
        povm_from_dict,
        lambda v: povm_from_dict({"effects": v}),
        lambda v: povm_from_dict({**povm_to_dict(POVM), "label": v}),
        lambda v: povm_from_dict({"effects": [[[[v, 0.0]] * 4] * 4]}),
    ],
    # A SweepConfig keeps x and povm_builder for sweep to check.
    "SweepConfig": [
        lambda v: SweepConfig(case=v),
        lambda v: SweepConfig(case="I", lambda_start=v),
        lambda v: SweepConfig(case="I", lambda_stop=v),
        lambda v: SweepConfig(case="I", count=v),
        lambda v: SweepConfig(case="I", tol=v),
        lambda v: SweepConfig(case="I", pipeline=v),
    ],
    "sweep": [
        sweep,
        lambda v: sweep(SweepConfig(case="II", x=v, count=5)),
        lambda v: sweep(SweepConfig(case="custom", x=v, count=3, povm_builder=werner_bell_povm)),
        lambda v: sweep(SweepConfig(case="custom", count=3, povm_builder=v)),
    ],
    "verify": [
        lambda v: verify(v, grid=GRID), lambda v: verify("II", v, GRID), lambda v: verify("I", grid=v),
    ],
    "classify_table": [
        lambda v: classify_table(v, grid=GRID),
        lambda v: classify_table("II", v, GRID),
        lambda v: classify_table("I", grid=v),
        lambda v: classify_table("I", grid=GRID, tol=v),
        lambda v: classify_table("I", grid=GRID, root_tol=v),
    ],
    "find_threshold": [
        lambda v: find_threshold(v, None, "14", "negativity", (0.2, 0.9)),
        lambda v: find_threshold("II", v, "12", "negativity", (0.0, 1.0)),
        lambda v: find_threshold("I", None, v, "negativity", (0.2, 0.9)),
        lambda v: find_threshold("I", None, "14", v, (0.2, 0.9)),
        lambda v: find_threshold("I", None, "14", "negativity", v),
        lambda v: find_threshold("I", None, "14", "negativity", (v, 0.9)),
        lambda v: find_threshold("I", None, "14", "negativity", (0.2, 0.9), v),
    ],
    "find_extremum": [
        lambda v: find_extremum(v, None, "14", "negativity", GRID),
        lambda v: find_extremum("II", v, "14", "negativity", GRID),
        lambda v: find_extremum("I", None, v, "negativity", GRID),
        lambda v: find_extremum("I", None, "14", v, GRID),
        lambda v: find_extremum("I", None, "14", "negativity", v),
    ],
}

# Each exported name that takes a matrix, the odd matrix in for m.
MATRIX_CALLS = {
    "hermitian_eig": [hermitian_eig],
    "psd_sqrt": [psd_sqrt],
    "trace_norm": [trace_norm],
    "kron": [lambda m: kron(m, I2), lambda m: kron(I2, m)],
    "partial_trace": [lambda m: partial_trace(m, 2, [1]), lambda m: partial_trace(m, 4, [1, 4])],
    "partial_transpose": [
        lambda m: partial_transpose(m, "second"), lambda m: partial_transpose(m, "first"),
    ],
    "report": [report],
    "negativity": [negativity],
    "correlation_spectrum": [correlation_spectrum],
    "steering2": [steering2],
    "steering3": [steering3],
    "bell_nonlocality": [bell_nonlocality],
    "DensityMatrix": [lambda m: DensityMatrix(2, m)],
    "pure_density_matrix": [pure_density_matrix],
    "Povm": [lambda m: Povm((m,)).violations(), lambda m: Povm((m, I4 - HALF)).violations()],
    "run_swap": [lambda m: run_swap(Povm((m,))), lambda m: run_swap(Povm((HALF, m)))],
    "rho14_spectral": [lambda m: rho14_spectral(Povm((m,)), 1)],
    "effect_entanglement": [lambda m: effect_entanglement(Povm((m,)), 1)],
    # A Povm holds an invalid candidate by design; its dict must not load.
    "povm_to_dict": [lambda m: povm_from_dict(povm_to_dict(Povm((m,))))],
    "povm_from_dict": [lambda m: povm_from_dict({"effects": [getattr(m, "tolist", lambda: m)()]})],
    "sweep": [
        lambda m: sweep(SweepConfig(case="custom", count=3, povm_builder=lambda lam: Povm((m,)))),
    ],
}

# Exported names that take no argument.
NO_ARGUMENTS = {"initial_four_qubit": initial_four_qubit}

# Records the library returns; their constructors store what they are given.
RESULT_RECORDS = {
    "SweepRecord", "ThresholdResult", "VerificationReport", "MeasureRange", "HermitianEig",
    "CorrelationSpectrum",
}


def test_every_exported_name_is_covered():
    exported = {
        name for name, value in vars(entswap).items()
        if not name.startswith("_") and not isinstance(value, type(entswap))
        and not (isinstance(value, type) and issubclass(value, (Exception, Warning)))
    }
    covered = {*SCALAR_CALLS, *MATRIX_CALLS, *NO_ARGUMENTS, *RESULT_RECORDS}
    assert exported == covered


def finite(value) -> bool:
    """Whether a result holds only finite numbers, in every field and entry."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, numbers.Number):
        try:
            return cmath.isfinite(value)
        except OverflowError:  # an int beyond float range
            return False
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biufc" and bool(np.isfinite(value).all())
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(finite(k) and finite(v) for k, v in value.items())
    return isinstance(value, (tuple, list)) and all(map(finite, value))


def raises_entswap_error_or_is_finite(label: str, call, value) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", NonMonotoneWarning)
        try:
            result = call(value)
        except EntswapError:
            return
        except Exception as exc:
            raise AssertionError(f"{label} on {value!r}: {exc!r}") from exc
    try:
        assert finite(result)
    except Exception as exc:
        raise AssertionError(f"{label} on {value!r} gave {result!r}") from exc


def each_call(table):
    for name, calls in table.items():
        for slot, call in enumerate(calls):
            yield f"{name}[{slot}]", call


@pytest.mark.parametrize("value", ODD_SCALARS, ids=repr)
def test_odd_scalars_raise_entswap_errors_or_give_finite_results(value):
    for label, call in each_call(SCALAR_CALLS):
        raises_entswap_error_or_is_finite(label, call, value)


@settings(max_examples=30, deadline=None)
@given(value=st.floats() | st.integers() | st.text(max_size=3) | st.booleans())
def test_drawn_scalars_raise_entswap_errors_or_give_finite_results(value):
    for label, call in each_call(SCALAR_CALLS):
        raises_entswap_error_or_is_finite(label, call, value)


_STACK = np.stack([HALF, HALF])
_RAGGED = [[1.0, 0.0], [0.0]]
ODD_MATRICES = {
    "3x3": np.eye(3) / 3, "2x2": I2 / 2, "8x8": np.eye(8) / 8, "vector": np.full(4, 0.5),
    "0-d": np.array(0.25), "scalar": 0.25, "stack": _STACK, "stack of one": _STACK[:1],
    "empty": np.zeros((0, 0)), "empty stack": np.zeros((0, 4, 4)), "str": np.full((4, 4), "a"),
    "ragged": _RAGGED, "int beyond float": [[10**400]], "huge": I4 * 1e308,
    "huge rank 1": np.full((4, 4), 1e308), "nan": np.full((4, 4), NAN),
    "one nan": np.where(np.eye(4, k=1) == 1, NAN, HALF),
    "inf": np.diag([INF] * 4), "-inf": np.diag([-INF] * 4),
    "negative": -HALF, "non-Hermitian": HALF + np.eye(4, k=1), "complex diagonal": 1j * HALF,
    "identity": I4, "None": None, "text": "I4", "bools": np.eye(4, dtype=bool),
}


@pytest.mark.parametrize("matrix", ODD_MATRICES.values(), ids=ODD_MATRICES)
def test_odd_matrices_raise_entswap_errors_or_give_finite_results(matrix):
    for label, call in each_call(MATRIX_CALLS):
        raises_entswap_error_or_is_finite(label, call, matrix)


_ENTRIES = st.sampled_from([0.0, 0.25, -0.25, 1.0, 1e-300, 1e308, -1e308, NAN, INF]) | st.floats(-1, 1)


@settings(max_examples=30, deadline=None)
@given(matrix=hnp.arrays(
    st.sampled_from([float, complex]),
    st.sampled_from([(4, 4), (2, 2), (16, 16), (2, 4, 4), (4,), (2,), (3, 3), (1, 4, 4)]),
    elements=_ENTRIES,
))
def test_drawn_matrices_raise_entswap_errors_or_give_finite_results(matrix):
    for label, call in each_call(MATRIX_CALLS):
        raises_entswap_error_or_is_finite(label, call, matrix)


def test_names_without_arguments_give_finite_results():
    for name, call in NO_ARGUMENTS.items():
        assert finite(call()), name


class BuilderFault(EntswapError):
    """A builder's own error, whose initializer takes two arguments."""

    def __init__(self, lam, reason):
        super().__init__(f"{reason} at {lam}")
        self.lam, self.reason = lam, reason


def _raise(error):
    raise error


# What a custom builder returns or raises at its failing point: its own
# errors, raised, or four-effect POVMs that validate rejects, returned.
Z4 = 0 * I4
FAULTS = {
    "own error": lambda lam: _raise(BuilderFault(lam, "no POVM")),
    "param error": lambda lam: _raise(BadParamError("no sharpness here")),
    "incomplete": lambda lam: Povm(tuple(1.1 * e for e in werner_bell_povm(lam).effects)),
    "not Hermitian": lambda lam: Povm((I4 + 1e-3 * np.eye(4, k=1), Z4, Z4, Z4)),
    "negative": lambda lam: Povm((2 * I4, -I4, Z4, Z4)),
    "non-finite": lambda lam: Povm((np.full((4, 4), NAN), I4, Z4, Z4)),
    "huge": lambda lam: Povm((I4 * 1e308, I4, Z4, Z4)),
}


@settings(max_examples=40, deadline=None)
@given(count=st.integers(2, 7), at=st.integers(0, 6), fault=st.sampled_from(sorted(FAULTS)))
def test_a_failing_custom_builder_reaches_the_caller_with_its_own_or_validates_error(
    count, at, fault
):
    lams = np.linspace(0.0, 1.0, count)
    bad = float(lams[at % count])
    make = FAULTS[fault]
    builder = lambda lam: make(lam) if lam == bad else werner_bell_povm(lam)  # noqa: E731
    try:
        expected = make(bad)
    except EntswapError as own:
        expected_type, attributes, message = type(own), dict(vars(own)), str(own)
    else:
        problems = validate(expected)
        assert problems
        expected_type, attributes = InvalidPovmError, {"problems": problems}
        message = "; ".join(problems)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EntswapError) as raised:
            sweep(SweepConfig(case="custom", count=count, povm_builder=builder))
    assert type(raised.value) is expected_type
    assert vars(raised.value) == attributes
    assert str(raised.value) == f"lambda={bad:.12g}: {message}"

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    BadParamError,
    CorrelationReport,
    DensityMatrix,
    NotAStateError,
    bell_nonlocality,
    bell_state,
    correlation_spectrum,
    initial_four_qubit,
    kron,
    negativity,
    partial_transpose,
    report,
    run_swap,
    steering2,
    steering3,
    trace_norm,
    werner_state,
)
from entswap import measures
from entswap.measures import negativity_signed, report_stack
from entswap.states import check_density_matrix
from entswap.povm import asymmetric_effects, werner_bell_effects
from entswap.swap import swap_stack
from helpers import (
    correlation_stack_einsum, random_density_matrix, random_povm, random_unitary, rng,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)

BELL = np.outer(bell_state(1), bell_state(1).conj())


def test_spectrum_maximally_mixed():
    spec = correlation_spectrum(np.eye(4) / 4)
    assert np.abs(spec.T).max() < 1e-15
    assert spec.M == 0.0 and spec.Lambda3 == 0.0


def test_spectrum_bell_state():
    spec = correlation_spectrum(BELL)
    assert np.allclose(spec.T, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    assert np.allclose(spec.t, (1.0, 1.0, 1.0), atol=1e-12)
    assert abs(spec.M - 2.0) < 1e-12
    assert abs(spec.Lambda3 - 3.0) < 1e-12


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9])
def test_spectrum_werner_triple(lam):
    spec = correlation_spectrum(werner_state(lam, 1))
    assert np.allclose(spec.t, (lam**2,) * 3, atol=1e-12)


def test_nonlocality_values():
    assert abs(bell_nonlocality(BELL) - 1.0) < 1e-12
    assert bell_nonlocality(werner_state(1 / SQRT2, 1)) < 1e-12
    expected = (0.8 * SQRT2 - 1.0) / (SQRT2 - 1.0)
    assert abs(bell_nonlocality(werner_state(0.8, 1)) - expected) < 1e-12


def test_steering_values():
    assert abs(steering3(BELL) - 1.0) < 1e-12
    assert steering3(werner_state(1 / SQRT3, 1)) < 1e-12
    assert steering3(werner_state(0.6, 1)) > 0.0


def test_steering2_equals_nonlocality():
    gen = rng(20)
    for _ in range(200):
        rho = random_density_matrix(gen)
        assert steering2(rho) == bell_nonlocality(rho)


def test_negativity_values():
    assert abs(negativity(BELL) - 1.0) < 1e-12
    assert negativity(np.eye(4) / 4) == 0.0
    for k in range(1, 5):
        assert abs(negativity(werner_state(2 / 3, k)) - 0.5) < 1e-12


def test_negativity_matches_trace_norm():
    gen = rng(21)
    for _ in range(50):
        rho = random_density_matrix(gen)
        neg = negativity(rho)
        alt = trace_norm(partial_transpose(rho, "second")) - 1.0
        if neg > 1e-10 or alt > 1e-10:
            assert abs(neg - alt) < 1e-10


def test_signed_negativity_sign_convention():
    assert negativity_signed(werner_state(0.1, 1)) < 0.0
    assert negativity_signed(werner_state(0.9, 1)) > 0.0


def test_local_unitary_invariance():
    gen = rng(22)
    for _ in range(20):
        rho = random_density_matrix(gen)
        u = kron(random_unitary(gen), random_unitary(gen))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated) - negativity(rho)) < 1e-9
        assert abs(steering3(rotated) - steering3(rho)) < 1e-9
        assert abs(bell_nonlocality(rotated) - bell_nonlocality(rho)) < 1e-9


@pytest.mark.parametrize(
    "w,entangled,steerable,violates_chsh",
    [(0.6, True, True, False), (0.5, True, False, False), (0.2, False, False, False)],
)
def test_report_classification(w, entangled, steerable, violates_chsh):
    rep = report(werner_state(w, 1))
    assert (rep.entangled, rep.steerable, rep.nonlocal_) == (entangled, steerable, violates_chsh)


def test_report_identities():
    rep = report(werner_state(0.77, 1))
    assert abs(rep.B - 2.0 * np.sqrt(rep.M)) < 1e-12
    assert rep.S2 == rep.N
    assert rep.Lambda3 >= rep.M


def test_report_tolerance_is_respected():
    # negativity (3*0.34-1)/2 = 0.01 sits between the two tolerances
    assert report(werner_state(0.34, 1), tol=1e-9).entangled
    assert not report(werner_state(0.34, 1), tol=0.1).entangled
    with pytest.raises(ValueError):
        report(werner_state(0.34, 1), tol=0.0)


def test_report_hierarchy_on_random_states():
    gen = rng(23)
    for _ in range(200):
        rep = report(random_density_matrix(gen))
        if rep.nonlocal_:
            assert rep.steerable
        if rep.steerable:
            assert rep.entangled


@pytest.mark.parametrize(
    "bad",
    [
        np.eye(4),  # trace 4
        np.diag([1.5, -0.5, 0.0, 0.0]),  # negative eigenvalue
        np.eye(3) / 3,  # wrong dimension
        np.eye(4) / 4 + 1e-6 * np.eye(4, k=1),  # not Hermitian
    ],
)
def test_measures_reject_non_states(bad):
    with pytest.raises(NotAStateError):
        correlation_spectrum(bad)
    with pytest.raises(NotAStateError):
        negativity(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [lambda m: check_density_matrix(m, 2), lambda m: DensityMatrix(2, m), negativity, report],
    ids=["check_density_matrix", "DensityMatrix", "negativity", "report"],
)
def test_non_finite_state_is_rejected(call, bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(NotAStateError, match="non-finite entry"):
        call(m)


def test_a_state_with_an_imaginary_correlation_matrix_is_rejected():
    # Its Hermitian residual, 1e-10, is at STATE_ATOL, so it passes as a
    # state; the residue of T, twice the antisymmetric part, does not.
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[1, 2] = 5e-11
    rho[3, 0] = rho[2, 1] = -5e-11
    check_density_matrix(rho, 2)
    message = r"^correlation matrix has imaginary residue 2\.000e-10$"
    for call in (correlation_spectrum, report):
        with pytest.raises(NotAStateError, match=message):
            call(rho)
    _, ok = report_stack(rho[None])
    assert ok.tolist() == [False]


def test_report_checks_the_qubit_count_of_a_density_matrix():
    with pytest.raises(NotAStateError, match="expected a 4x4 matrix"):
        report(initial_four_qubit())


def test_report_checks_a_raw_array_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_density_matrix(*args, **kwargs)

    monkeypatch.setattr(measures, "check_density_matrix", counted)
    rep = report(np.asarray(werner_state(0.77, 1)))
    assert len(calls) == 1
    assert rep == report(werner_state(0.77, 1))


def test_closed_form_quantities_that_break_the_hierarchy_are_rejected():
    # M = 2 is nonlocal and Lambda3 = 3 steerable, with no negativity.
    message = r"N=1\.000e\+00, S3=1\.000e\+00, negativity=0\.000e\+00$"
    with pytest.raises(NotAStateError, match=r"^correlation hierarchy violated: " + message):
        CorrelationReport.from_quantities(0.0, 2.0, 3.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("quantities, name, shown", [
    ((NAN, 0.5, 0.5), "negativity", "nan"),
    ((0.5, NAN, 0.5), "M", "nan"),
    ((0.5, INF, INF), "M", "inf"),
    ((0.5, 0.5, -INF), "Lambda3", "-inf"),
    (("0.5", 0.5, 0.5), "negativity", "'0.5'"),
    (([0.5], 0.5, 0.5), "negativity", "[0.5]"),
    ((None, 0.5, 0.5), "negativity", "None"),
    ((0.5 + 0j, 0.5, 0.5), "negativity", "(0.5+0j)"),
    ((np.array([0.5]), 0.5, 0.5), "negativity", "array([0.5])"),
    ((0.5, 0.5, 10**400), "Lambda3", str(10**400)),
], ids=["nan", "nan M", "inf", "-inf", "str", "list", "None", "complex", "array", "huge int"])
def test_quantities_that_are_no_finite_real_number_are_rejected(quantities, name, shown):
    # Under the suite's warning filter a numpy warning would fail here too.
    message = f"{name} must be a finite real number, got {shown}"
    with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
        CorrelationReport.from_quantities(*quantities)


def test_finite_quantities_of_any_real_type_give_the_float_report():
    want = CorrelationReport.from_quantities(0.5, 0.5, 0.75)
    for quantities in ((np.float64(0.5), 0.5, np.float64(0.75)), (0.5, 0.5, 0.75), (1, 0.5, 0.75)):
        got = CorrelationReport.from_quantities(*quantities)
        assert all(type(v) is type(w) for v, w in zip(vars(got).values(), vars(want).values()))
    assert CorrelationReport.from_quantities(np.float64(0.5), 0.5, 0.75) == want


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerances_are_rejected(tol):
    state = werner_state(0.5, 1)
    calls = [
        lambda: report(state, tol),
        lambda: report_stack(np.array([BELL]), tol),
        lambda: CorrelationReport.from_quantities(0.25, 0.5, 0.75, tol=tol),
    ]
    for call in calls:
        with pytest.raises(BadParamError, match="tolerance must be positive and finite"):
            call()


@pytest.mark.parametrize(
    "shape", [(1, 4, 4), (2, 4, 4), (16,)], ids=["stack-of-one", "stack-of-two", "vector"]
)
@pytest.mark.parametrize(
    "call",
    [lambda m: DensityMatrix(2, m), report, correlation_spectrum, negativity, negativity_signed],
    ids=["DensityMatrix", "report", "correlation_spectrum", "negativity", "negativity_signed"],
)
def test_one_state_means_exactly_one_4x4_matrix(call, shape):
    message = f"expected one matrix, got an array of shape {shape}"
    with pytest.raises(NotAStateError, match=re.escape(message)):
        call(np.zeros(shape))


def _random_states(seed: int) -> np.ndarray:
    """Random full-rank states and the run_swap pair states of a random POVM."""
    gen = np.random.default_rng(seed)
    random = [random_density_matrix(gen) for _ in range(4)]
    paired = [o.pair_state(p).matrix for o in run_swap(random_povm(gen)) for p in ("14", "12", "34")]
    return np.array(random + paired)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scalar_views_equal_the_stacked_kernel_bit_for_bit(seed):
    states = _random_states(seed)
    T, _, product = measures._correlation_stack(states)
    t, _, _ = measures._spectrum_stack(product)
    neg, m_value, lambda3, ok = measures._signed_stack(states)
    n, s3 = measures.nonlocality_from_pair_sum(m_value), measures.steering3_from_total(lambda3)
    assert ok.all()
    for i, rho in enumerate(states):
        spectrum = correlation_spectrum(rho)
        assert np.array_equal(spectrum.T, T[i])
        assert spectrum.t == tuple(t[i].tolist())
        assert (spectrum.M, spectrum.Lambda3) == (m_value[i], lambda3[i])
        assert negativity_signed(rho) == neg[i]
        assert measures.nonlocality_signed(rho) == n[i]
        assert measures.steering3_signed(rho) == s3[i]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_signed_rows_equal_the_columns_of_the_signed_stack_bit_for_bit(seed):
    # Two states the checks reject, whose values are those of the zero matrix.
    states = np.concatenate([_random_states(seed), [np.full((4, 4), np.nan), np.eye(4) / 2]])
    rows = np.arange(len(states))
    neg, m_value, lambda3, ok = measures._signed_stack(states)
    n, s3 = measures.nonlocality_from_pair_sum(m_value), measures.steering3_from_total(lambda3)
    assert not ok[-2:].any()
    drawn = np.random.default_rng(seed).integers(0, 4, len(states))
    for columns in (drawn, np.zeros_like(drawn), np.full_like(drawn, 2)):
        values, ok_rows = measures._signed_rows(states, columns)
        assert ok_rows.tolist() == ok.tolist()
        assert values.tobytes() == np.stack([neg, n, s3, n])[columns, rows].tobytes()


def _with_negative_zeros(states: np.ndarray, seed: int) -> np.ndarray:
    """``states`` with a random third of the real and of the imaginary parts
    of their entries set to -0.0, and one matrix of -0.0 alone."""
    gen = np.random.default_rng(seed)
    m = states.copy()
    m.real[gen.random(m.shape) < 1 / 3] = -0.0
    m.imag[gen.random(m.shape) < 1 / 3] = -0.0
    return np.concatenate([m, np.full((1, 4, 4), complex(-0.0, -0.0))])


def _preset_states() -> np.ndarray:
    """The swap_stack pair states of the four presets, 101 lambdas each,
    shape (4, 101, 4, 3, 4, 4)."""
    lams = np.linspace(0.0, 1.0, 101)
    effects = [werner_bell_effects(lams)] + [asymmetric_effects(x, lams) for x in (0.3, 0.725, 0.8)]
    return np.array([swap_stack(e)[2] for e in effects])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_states(7), id="random"),
    pytest.param(lambda: rng(11).standard_normal((2, 50, 4, 4, 2)).view(complex)[..., 0],
                 id="random-complex"),
    pytest.param(_preset_states, id="presets"),
    pytest.param(lambda: _with_negative_zeros(_random_states(8), 8), id="negative-zeros"),
    pytest.param(lambda: _with_negative_zeros(_random_states(9).real + 0j, 9),
                 id="real-negative-zeros"),
    pytest.param(lambda: random_density_matrix(rng(10)), id="one-state"),
    pytest.param(lambda: np.full((4, 4), complex(-0.0, -0.0)), id="one-negative-zero"),
])
def test_correlation_matrix_product_is_bitwise_the_einsum(make):
    states = make()
    got, want = measures._correlation_stack(states), correlation_stack_einsum(states)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()

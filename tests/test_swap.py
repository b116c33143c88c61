import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    AsymmetricPovmParams,
    BadParamError,
    DegenerateEffectError,
    InvalidPovmError,
    Povm,
    asymmetric_povm,
    bell_state,
    case1_closed_forms,
    case2_closed_forms,
    partial_trace,
    rho14_spectral,
    run_swap,
    s_of_lambda,
    werner_bell_povm,
    werner_state,
)
from entswap import CorrelationReport, measures
from entswap.povm import _asymmetric_weights
from entswap.states import lambda_basis_rows
from entswap.swap import PAIRS, swap_stack
from helpers import random_povm, rng

I4 = np.eye(4, dtype=complex)
LAMBDA_GRID = np.linspace(0.0, 1.0, 11)
X_PRESETS = (0.3, 0.725, 0.8)


def test_projective_swap():
    outcomes = run_swap(werner_bell_povm(1.0))
    for outcome in outcomes:
        k = outcome.outcome_index
        assert abs(outcome.probability - 0.25) < 1e-12
        v = bell_state(k)
        assert np.abs(np.asarray(outcome.rho14) - np.outer(v, v.conj())).max() < 1e-12
        assert np.abs(np.asarray(outcome.rho12) - I4 / 4).max() < 1e-12
        assert np.abs(np.asarray(outcome.rho34) - I4 / 4).max() < 1e-12


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_unsharp_swap_conditional_states(lam):
    outcomes = run_swap(werner_bell_povm(lam))
    s = s_of_lambda(lam)
    residual = np.asarray(werner_state(s, 1))
    for outcome in outcomes:
        expected14 = np.asarray(werner_state(lam, outcome.outcome_index))
        assert np.abs(np.asarray(outcome.rho14) - expected14).max() < 1e-12
        assert np.abs(np.asarray(outcome.rho12) - residual).max() < 1e-12
        assert np.abs(np.asarray(outcome.rho34) - residual).max() < 1e-12


def test_outcome_probabilities_quarter():
    for lam in LAMBDA_GRID:
        for build in [lambda l: werner_bell_povm(l)] + [
            (lambda x: lambda l: asymmetric_povm(x, l))(x) for x in X_PRESETS
        ]:
            probs = [o.probability for o in run_swap(build(lam))]
            assert np.abs(np.array(probs) - 0.25).max() < 1e-12


def test_probabilities_sum_to_one_random_povms():
    gen = rng(30)
    for _ in range(10):
        outcomes = run_swap(random_povm(gen, outcomes=int(gen.integers(2, 7))))
        assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-10


def test_spectral_shortcut_matches_pipeline():
    gen = rng(31)
    povms = [werner_bell_povm(0.42), asymmetric_povm(0.3, 0.61)]
    povms += [random_povm(gen) for _ in range(5)]
    for p in povms:
        outcomes = run_swap(p)
        for outcome in outcomes:
            direct = rho14_spectral(p, outcome.outcome_index)
            assert np.abs(np.asarray(direct) - np.asarray(outcome.rho14)).max() < 1e-10


def test_spectral_shortcut_trivial_effect():
    p = Povm((I4,), label="trivial")
    assert np.abs(np.asarray(rho14_spectral(p, 1)) - I4 / 4).max() < 1e-15


def test_degenerate_outcome_flagged():
    p = Povm((np.zeros((4, 4), dtype=complex), I4), label="skewed")
    assert validate_ok(p)
    outcomes = run_swap(p)
    assert outcomes[0].degenerate and outcomes[0].rho14 is None
    assert outcomes[0].probability < 1e-12
    with pytest.raises(DegenerateEffectError):
        outcomes[0].pair_state("14")
    with pytest.raises(DegenerateEffectError):
        rho14_spectral(p, 1)
    assert not outcomes[1].degenerate
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12


@pytest.mark.parametrize("trace", [2e-12, 3.9e-12, 4.1e-12, 8e-12])
def test_spectral_shortcut_is_degenerate_exactly_where_run_swap_is(trace):
    # Outcome 1 has probability trace / 4: degenerate below 4e-12.
    p = Povm((trace / 4 * I4, (1 - trace / 4) * I4), label="faint")
    assert validate_ok(p)
    degenerate = run_swap(p)[0].degenerate
    assert degenerate == (trace < 4e-12)
    if degenerate:
        with pytest.raises(DegenerateEffectError, match="effect 1 has trace"):
            rho14_spectral(p, 1)
    else:
        assert np.abs(np.asarray(rho14_spectral(p, 1)) - I4 / 4).max() < 1e-15


def validate_ok(p):
    from entswap.povm import validate

    return validate(p) == []


def test_run_swap_rejects_invalid_povm():
    with pytest.raises(InvalidPovmError, match="completeness"):
        run_swap(Povm((I4, I4)))


def test_case1_residual_pairs_outcome_independent():
    outcomes = run_swap(werner_bell_povm(0.37))
    references = [np.asarray(outcomes[0].rho12), np.asarray(outcomes[0].rho34)]
    for outcome in outcomes:
        assert np.abs(np.asarray(outcome.rho12) - references[0]).max() < 1e-10
        assert np.abs(np.asarray(outcome.rho34) - references[1]).max() < 1e-10
    assert np.abs(references[0] - references[1]).max() < 1e-10


def test_case2_residual_pairs_differ():
    outcome = run_swap(asymmetric_povm(0.3, 0.5))[0]
    gap = np.abs(np.asarray(outcome.rho12) - np.asarray(outcome.rho34)).max()
    assert gap > 1e-6


@pytest.mark.parametrize("build", [lambda l: werner_bell_povm(l), lambda l: asymmetric_povm(0.725, l)])
def test_no_signalling_average(build):
    for lam in (0.3, 0.77):
        outcomes = run_swap(build(lam))
        averaged = sum(o.probability * np.asarray(o.rho12) for o in outcomes)
        marginal = partial_trace(averaged, 2, {1})
        assert np.abs(marginal - np.eye(2) / 2).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_s_of_lambda_bounds(lam):
    value = s_of_lambda(lam)
    assert -1e-15 <= value <= 1.0 + 1e-15


def test_s_of_lambda_values():
    assert s_of_lambda(0.0) == 1.0
    assert s_of_lambda(1.0) == 0.0
    assert abs(s_of_lambda(2 / 3) - 2 / 3) < 1e-12
    with pytest.raises(BadParamError):
        s_of_lambda(1.5)


def test_case1_closed_form_values():
    forms = case1_closed_forms(2 / 3)
    assert abs(forms.negativity_14 - 0.5) < 1e-12
    assert abs(forms.negativity_12 - 0.5) < 1e-12

    forms = case1_closed_forms(0.8)
    sqrt2 = np.sqrt(2.0)
    assert abs(forms.negativity_14 - 0.7) < 1e-12
    assert abs(forms.nonlocality_14 - (0.8 * sqrt2 - 1) / (sqrt2 - 1)) < 1e-12

    assert case1_closed_forms(1 / np.sqrt(2)).nonlocality_14 < 1e-12
    assert case1_closed_forms(0.2).negativity_14 == 0.0  # clamped below threshold
    assert case1_closed_forms(0.4).steering3_34 == case1_closed_forms(0.4).steering3_12


def test_case1_oracle_equivalence():
    for lam in LAMBDA_GRID:
        forms = case1_closed_forms(lam)
        outcomes = run_swap(werner_bell_povm(lam))
        for outcome in outcomes:
            for pair in PAIRS:
                rep = measures.report(outcome.pair_state(pair))
                expected = forms.report(pair)
                for key, value in rep.values().items():
                    assert abs(value - expected.values()[key]) < 1e-9, (lam, pair, key)


def test_case2_oracle_equivalence():
    for x in X_PRESETS:
        for lam in LAMBDA_GRID:
            forms = case2_closed_forms(x, lam)
            outcomes = run_swap(asymmetric_povm(x, lam))
            for outcome in outcomes:
                for pair in PAIRS:
                    rep = measures.report(outcome.pair_state(pair))
                    expected = forms.report(pair)
                    for key, value in rep.values().items():
                        assert abs(value - expected.values()[key]) < 1e-9, (x, lam, pair, key)


def test_case2_degenerate_point_all_zero():
    forms = case2_closed_forms(0.8, 0.0)
    assert abs(forms.negativity_14) < 1e-15
    assert abs(forms.negativity_12) < 1e-15
    assert abs(forms.negativity_34) < 1e-15
    rep = forms.report("14")
    assert rep.S3 < 1e-12 and rep.N < 1e-12


def test_case2_trace_identity_via_params():
    for x in X_PRESETS:
        for lam in LAMBDA_GRID:
            p = case2_closed_forms(x, lam).params
            assert abs(p.e**2 + p.f**2 + p.g**2 + 2 * p.h**2 - 1.0) < 1e-12


def exact(value) -> str:
    """The fields of a dataclass, or a tuple of floats, as text that tells every bit."""
    return repr(dataclasses.astuple(value) if dataclasses.is_dataclass(value) else value)


def reference_params(x: float, lam: float) -> dict:
    """The fields of ``AsymmetricPovmParams(x, lam)``, with a and b read from
    the first column of the lambda basis rows."""
    y1, y2, w1, w2 = _asymmetric_weights(x, lam)
    a, b = lambda_basis_rows(lam)[:2, 0].real
    fields = dict(
        y1=y1, y2=y2, w1=w1, w2=w2, a=a, b=b, e=np.sqrt(w2),
        f=a * a * np.sqrt(w1) + b * b * np.sqrt(x),
        g=b * b * np.sqrt(w1) + a * a * np.sqrt(x),
        h=a * b * (np.sqrt(w1) - np.sqrt(x)),
        q=a * b * (y1 * (1.0 - 2.0 * x) - x * y2) / (y1 + y2),
        r=w2,
    )
    return {name: float(value) for name, value in fields.items()}


def reference_report(negativity, t) -> CorrelationReport:
    """The report of a pair from its signed negativity and T^T T eigenvalues t."""
    t = sorted(t, reverse=True)
    return CorrelationReport.from_quantities(negativity, t[0] + t[1], t[0] + t[1] + t[2])


CLOSED_FORM_LAMBDAS = [*np.linspace(0.0, 1.0, 101).tolist(), 1 / 3, 0.9999579110831897, 5e-324]


def test_case2_closed_forms_are_bitwise_the_lambda_basis_reference():
    for x in (0.0, 0.05, 0.3, 0.5, 0.725, 0.8, 0.95, 1.0):
        for lam in CLOSED_FORM_LAMBDAS:
            forms = case2_closed_forms(x, lam)
            expected = reference_params(x, lam)
            assert exact(forms.params) == exact(AsymmetricPovmParams(x, lam))
            got = tuple(getattr(forms.params, name) for name in expected)
            assert exact(got) == exact(tuple(expected.values())), (x, lam)
            for pair in PAIRS:
                negativity, t = getattr(forms, f"negativity_{pair}"), getattr(forms, f"t_{pair}")
                assert exact(forms.report(pair)) == exact(reference_report(negativity, t))


def test_case1_closed_forms_are_bitwise_the_werner_reports():
    names = ("negativity", "steering3", "nonlocality")
    for lam in CLOSED_FORM_LAMBDAS:
        forms = case1_closed_forms(lam)
        for pair, w in (("14", lam), ("12", forms.s), ("34", forms.s)):
            expected = reference_report((3.0 * w - 1.0) / 2.0, (w * w,) * 3)
            got = tuple(getattr(forms, f"{name}_{pair}") for name in names)
            assert exact(got) == exact((expected.negativity, expected.S3, expected.N)), lam
            assert exact(forms.report(pair)) == exact(expected)


def test_rho14_spectral_index_out_of_range():
    from entswap import BadIndexError

    for i in (0, 5):
        with pytest.raises(BadIndexError, match="effect index"):
            rho14_spectral(werner_bell_povm(0.5), i)


@pytest.mark.parametrize("p", [
    asymmetric_povm(0.725, 0.4),
    Povm((np.zeros((4, 4), dtype=complex), I4 / 2, I4 / 2), label="one degenerate"),
], ids=lambda p: p.label)
def test_run_swap_pair_states_are_read_only_views_of_one_stack(p):
    outcomes = [o for o in run_swap(p) if not o.degenerate]
    matrices = [o.pair_state(pair).matrix for o in outcomes for pair in PAIRS]
    buffer = matrices[0]
    while isinstance(buffer.base, np.ndarray):
        buffer = buffer.base
    for m in matrices:
        assert np.shares_memory(m, buffer)
        assert_frozen(m)
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


def assert_frozen(m):
    """Neither ``m`` nor any array up its ``.base`` chain can be made writeable."""
    while isinstance(m, np.ndarray):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m.setflags(write=True)
        m = m.base


def test_validated_arrays_cannot_be_made_writeable():
    p = asymmetric_povm(0.725, 0.4)
    handed_out = [
        *p.effects,
        werner_state(0.5, 1).matrix,
        rho14_spectral(p, 1).matrix,
        *(o.pair_state(pair).matrix for o in run_swap(p) for pair in PAIRS),
    ]
    for m in handed_out:
        assert_frozen(m)


def test_swap_stack_matches_run_swap():
    gen = rng(13)
    povms = [random_povm(gen, outcomes=5) for _ in range(3)]
    povms.append(Povm((np.zeros((4, 4), dtype=complex), I4, 0 * I4, 0 * I4, 0 * I4)))
    ok, probabilities, states, _ = swap_stack(np.array([p.effects for p in povms]))
    assert ok.all() and states.shape == (4, 5, 3, 4, 4)
    for p, probs, pair_states in zip(povms, probabilities, states):
        for outcome in run_swap(p):
            j = outcome.outcome_index - 1
            assert abs(probs[j] - outcome.probability) < 1e-14
            if outcome.degenerate:
                assert not pair_states[j].any()
                continue
            for q, pair in enumerate(PAIRS):
                assert np.abs(pair_states[j, q] - np.asarray(outcome.pair_state(pair))).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outcomes=st.integers(1, 5), zeros=st.integers(1, 3))
def test_swap_stack_keeps_the_outcomes_run_swap_does_not_mark_degenerate(seed, outcomes, zeros):
    # Zero effects, and effects of probability just below and above the
    # floor, placed among a random POVM's.
    gen = np.random.default_rng(seed)
    small = [np.zeros((4, 4))] * zeros + [0.5e-12 * I4, 2e-12 * I4]
    effects = list(random_povm(gen, outcomes=outcomes).effects)
    effects[0] = effects[0] - sum(small)
    for e in small:
        effects.insert(int(gen.integers(len(effects) + 1)), e)
    p = Povm(tuple(effects))
    ok, _, states, kept = swap_stack(np.array([p.effects]))
    assert ok.all()
    assert kept[0].tolist() == [not o.degenerate for o in run_swap(p)]
    assert not states[0][~kept[0]].any()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    effects=st.integers(1, 8),
    weak=st.sampled_from([None, 0.0, 1e-15, 1e-13]),
)
def test_run_swap_equals_the_per_effect_loop_bitwise(seed, effects, weak):
    from helpers import run_swap_per_effect

    gen = np.random.default_rng(seed)
    if weak is None or effects == 1:
        p = random_povm(gen, outcomes=effects)
    else:
        # Split one effect E into weak * E, a degenerate outcome, and (1 - weak) * E.
        base = random_povm(gen, outcomes=effects - 1).effects
        j = int(gen.integers(len(base)))
        split = (weak * base[j], (1.0 - weak) * base[j])
        p = Povm(base[:j] + split + base[j + 1:])
    stacked, reference = run_swap(p), run_swap_per_effect(p)
    if weak is not None and effects > 1:
        assert any(o.degenerate for o in stacked)
    assert len(stacked) == len(reference)
    for got, want in zip(stacked, reference):
        assert got.outcome_index == want.outcome_index
        assert got.degenerate == want.degenerate
        assert got.probability == want.probability
        assert type(got.probability) is float
        for pair in PAIRS:
            state, expected = getattr(got, f"rho{pair}"), getattr(want, f"rho{pair}")
            if expected is None:
                assert state is None
                continue
            assert state.qubits == 2 and not state.matrix.flags.writeable
            assert state.matrix.tobytes() == expected.matrix.tobytes()

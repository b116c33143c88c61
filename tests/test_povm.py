import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    AsymmetricPovmParams,
    BadIndexError,
    BadParamError,
    DegenerateEffectError,
    InvalidPovmError,
    Povm,
    asymmetric_povm,
    bell_state,
    effect_entanglement,
    lambda_basis,
    povm_from_dict,
    povm_to_dict,
    product_basis,
    werner_bell_povm,
)
from entswap.povm import validate
from helpers import malformed_povm_payloads, povm_from_dict_walk, random_povm, rng

I4 = np.eye(4, dtype=complex)
LAMBDA_GRID = np.linspace(0.0, 1.0, 11)
X_PRESETS = (0.3, 0.725, 0.8)


def test_builder_povms_validate_clean():
    for lam in LAMBDA_GRID:
        assert validate(werner_bell_povm(lam)) == []
        for x in X_PRESETS:
            assert validate(asymmetric_povm(x, lam)) == []


def test_single_outcome_trivial_povm_is_valid():
    assert validate(Povm((I4,), label="trivial")) == []


def test_validate_flags_completeness():
    problems = validate(Povm((I4, I4)))
    assert len(problems) == 1
    assert "completeness" in problems[0]
    assert "1" in problems[0]  # residual magnitude appears in the message


def test_validate_flags_effect_problems():
    problems = validate(Povm((1.5 * I4, -0.5 * I4)))
    assert any(p.startswith("effect 1") and "exceeds 1" in p for p in problems)
    assert any(p.startswith("effect 2") and "negative eigenvalue" in p for p in problems)

    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-6
    problems = validate(Povm((I4 / 2 + skew, I4 / 2)))
    assert any(p.startswith("effect 1") and "Hermitian" in p for p in problems)


def test_povm_structure_enforced():
    with pytest.raises(InvalidPovmError):
        Povm(())
    with pytest.raises(InvalidPovmError):
        Povm((np.eye(2),))


@pytest.mark.parametrize(
    "effects, message",
    [
        ((I4, np.eye(2)), "effect 2: expected a 4x4 matrix, got shape (2, 2)"),
        ((I4, I4[None]), "effect 2: expected a 4x4 matrix, got shape (1, 4, 4)"),
        ((I4, 1.0), "effect 2: expected a 4x4 matrix, got shape ()"),
        ((I4, I4, np.zeros((4, 5))), "effect 3: expected a 4x4 matrix, got shape (4, 5)"),
        ((np.eye(2), np.eye(2)), "effect 1: expected a 4x4 matrix, got shape (2, 2)"),
    ],
    ids=["ragged-2x2", "ragged-3d", "ragged-scalar", "ragged-4x5", "all-2x2"],
)
def test_povm_names_the_first_effect_that_is_not_4x4(effects, message):
    with pytest.raises(InvalidPovmError) as raised:
        Povm(effects)
    assert str(raised.value) == message


@pytest.mark.parametrize("as_stack", [False, True], ids=["tuple", "stack"])
def test_povm_effects_are_read_only_copies(as_stack):
    caller = [I4 / 4 + 0.01 * k * np.diag([1, -1, 0, 0]) for k in range(4)]
    given_effects = np.array(caller) if as_stack else tuple(caller)
    povm = Povm(given_effects)
    expected = [effect.copy() for effect in caller]
    for k, effect in enumerate(povm.effects):
        assert effect.dtype == complex and effect.shape == (4, 4)
        assert not effect.flags.writeable
        with pytest.raises(ValueError):
            effect[0, 0] = 1.0
        assert not np.shares_memory(effect, given_effects if as_stack else caller[k])
    (given_effects[0] if as_stack else caller[0])[0, 0] = 7.0
    assert all(np.array_equal(e, x) for e, x in zip(povm.effects, expected))


def test_werner_bell_povm_limits():
    projective = werner_bell_povm(1.0)
    for k, effect in enumerate(projective.effects, start=1):
        v = bell_state(k)
        assert np.abs(effect - np.outer(v, v.conj())).max() < 1e-15
    trivial = werner_bell_povm(0.0)
    for effect in trivial.effects:
        assert np.abs(effect - I4 / 4).max() < 1e-15


def test_werner_bell_povm_bad_param():
    with pytest.raises(BadParamError):
        werner_bell_povm(-0.2)


def test_werner_effects_commute():
    for lam in LAMBDA_GRID:
        effects = werner_bell_povm(lam).effects
        for a in effects:
            for b in effects:
                assert np.abs(a @ b - b @ a).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_asymmetric_povm_valid_everywhere(x, lam):
    assert validate(asymmetric_povm(x, lam)) == []


def test_asymmetric_povm_degenerate_sharpness():
    # at lam = 0 the product-vector weight vanishes
    effect = asymmetric_povm(0.3, 0.0).effects[0]
    expected = 0.3 * np.diag([0, 0, 0, 1]) + 0.7 * np.diag([1, 0, 0, 0])
    assert np.abs(effect - expected).max() < 1e-15


def test_asymmetric_povm_equal_weights_at_full_sharpness():
    params = AsymmetricPovmParams(0.3, 1.0)
    assert abs(params.y1 - 0.25) < 1e-15
    assert abs(params.y2 - 0.25) < 1e-15
    assert abs(params.w1 - 0.35) < 1e-15
    assert abs(params.w2 - 0.35) < 1e-15


def test_asymmetric_params_trace_identity():
    for lam in LAMBDA_GRID:
        for x in X_PRESETS:
            p = AsymmetricPovmParams(x, lam)
            combo = p.e**2 + p.f**2 + p.g**2 + 2 * p.h**2
            assert abs(combo - 1.0) < 1e-12
            assert p.y1 >= 0.0 and p.y2 >= 0.0 and p.y1 + p.y2 > 0.0


def test_asymmetric_params_bad_inputs():
    with pytest.raises(BadParamError):
        AsymmetricPovmParams(1.5, 0.5)
    with pytest.raises(BadParamError):
        asymmetric_povm(0.3, -0.1)


def test_effect_entanglement_thresholds():
    assert abs(effect_entanglement(werner_bell_povm(1.0), 1) - 1.0) < 1e-12
    assert effect_entanglement(werner_bell_povm(0.2), 1) == 0.0
    assert abs(effect_entanglement(werner_bell_povm(0.5), 1) - 0.25) < 1e-12
    for i in range(1, 5):  # separability edge
        assert effect_entanglement(werner_bell_povm(1 / 3), i) < 1e-12
    with pytest.raises(BadIndexError):
        effect_entanglement(werner_bell_povm(0.5), 5)


def test_effect_entanglement_of_a_zero_effect_raises_without_a_warning():
    p = Povm((np.zeros((4, 4), dtype=complex), I4), label="skewed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateEffectError, match="effect 1 has trace 0.000e"):
            effect_entanglement(p, 1)


def _non_finite_povms():
    for bad in (np.nan, np.inf, -np.inf):
        corner = np.zeros((4, 4), dtype=complex)
        corner[0, 1] = bad
        yield Povm((np.full((4, 4), bad), I4), label=f"filled with {bad}")
        yield Povm((corner, I4), label=f"one {bad} entry")


@pytest.mark.parametrize("p", list(_non_finite_povms()), ids=lambda p: p.label)
@pytest.mark.parametrize("function", ["effect_entanglement", "rho14_spectral"])
def test_non_finite_effect_is_rejected_as_run_swap_rejects_it(function, p):
    # The suite turns numpy's RuntimeWarning into an error, so a division by
    # a non-finite trace would fail here before any EntswapError.
    from entswap import run_swap, rho14_spectral

    call = {"effect_entanglement": effect_entanglement, "rho14_spectral": rho14_spectral}[function]
    with pytest.raises(InvalidPovmError, match=r"^effect 1: non-finite entry") as from_swap:
        run_swap(p)
    with pytest.raises(InvalidPovmError) as raised:
        call(p, 1)
    assert str(raised.value) == "effect 1: non-finite entry"
    assert raised.value.problems == from_swap.value.problems[:1]
    # The finite effect of the same POVM is still served.
    assert abs(np.trace(np.asarray(rho14_spectral(p, 2))) - 1) < 1e-15


def test_json_round_trip():
    # Any finite effect, a POVM or not, down to subnormals and up to the
    # largest float, comes back exactly as JSON without inf or NaN.
    edge = Povm((np.full((4, 4), complex(1e308, -5e-324)), I4), label="edge")
    for original in (asymmetric_povm(0.725, 0.4), random_povm(rng(12)), edge):
        payload = json.loads(json.dumps(povm_to_dict(original), allow_nan=False))
        rebuilt = povm_from_dict(payload)
        assert rebuilt.label == original.label
        assert len(rebuilt.effects) == len(original.effects)
        for a, b in zip(rebuilt.effects, original.effects):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)],
                         ids=["inf", "-inf", "nan", "imaginary-inf"])
def test_povm_to_dict_refuses_a_non_finite_effect(entry):
    # JSON has no inf or NaN: json.dumps would write Infinity or NaN, which
    # povm_from_dict rejects.
    effect = np.zeros((4, 4), dtype=complex)
    effect[0, 0] = entry
    p = Povm((I4, effect))
    with pytest.raises(InvalidPovmError) as raised:
        povm_to_dict(p)
    assert str(raised.value) == "effect 2: non-finite entry"
    assert raised.value.problems == ["effect 2: non-finite entry"]
    assert raised.value.problems[0] in validate(p)


def test_json_structural_errors_name_position():
    good = povm_to_dict(werner_bell_povm(0.5))

    broken = json.loads(json.dumps(good))
    broken["effects"][1] = broken["effects"][1][:3]
    with pytest.raises(InvalidPovmError, match="effect 2"):
        povm_from_dict(broken)

    broken = json.loads(json.dumps(good))
    broken["effects"][0][2][3] = [0.1]
    with pytest.raises(InvalidPovmError, match="row 2, column 3"):
        povm_from_dict(broken)

    with pytest.raises(InvalidPovmError, match="label"):
        povm_from_dict({"label": 7, "effects": good["effects"]})
    with pytest.raises(InvalidPovmError, match="effects"):
        povm_from_dict({"label": "x", "effects": []})


def test_random_povms_validate_clean():
    gen = rng(10)
    for _ in range(10):
        assert validate(random_povm(gen)) == []


def test_validate_flags_non_finite_entries():
    nan_effect = I4.copy()
    nan_effect[1, 2] = complex(float("nan"), 0.0)
    problems = validate(Povm((nan_effect, 0 * I4)))
    assert problems and problems[0] == "effect 1: non-finite entry"
    inf_effect = I4 / 2
    inf_effect[0, 0] = float("inf")
    assert any(p.startswith("effect 1: non-finite") for p in validate(Povm((inf_effect, I4 / 2))))


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), True, False])
def test_json_rejects_non_finite_and_boolean_entries(entry):
    payload = json.loads(json.dumps(povm_to_dict(werner_bell_povm(0.5))))
    payload["effects"][0][1][2] = [0.0, entry]
    with pytest.raises(InvalidPovmError, match="row 1, column 2"):
        povm_from_dict(payload)


@settings(max_examples=300, deadline=None)
@given(malformed_povm_payloads())
def test_json_rejects_malformed_payloads(payload):
    with pytest.raises(InvalidPovmError):
        povm_from_dict(json.loads(json.dumps(payload)))


def test_json_rejects_integers_beyond_float_range():
    payload = json.loads(json.dumps(povm_to_dict(werner_bell_povm(0.5))))
    payload["effects"][0][1][2] = [10**400, 0]
    with pytest.raises(
        InvalidPovmError,
        match=r"^effect 1, row 1, column 2: expected an \[re, im\] pair of finite numbers$",
    ):
        povm_from_dict(payload)


def _parsed(parse, payload):
    """The label and effect bits ``parse`` gives, or its exception type and message."""
    try:
        p = parse(payload)
    except Exception as exc:
        return type(exc), str(exc)
    return p.label, np.array(p.effects).view(np.uint64).tolist()


# Floats of every magnitude (with -0.0 and subnormals), ints up to 2**63 and
# ints far beyond it that a float still holds.
_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2**63, -(2**63), 2**1023]),
    st.integers(-(2**63), 2**63),
    st.integers(-(2**1000), 2**1000),
)


def _exactly(n, elements):
    return st.lists(elements, min_size=n, max_size=n)


_WELL_FORMED = st.fixed_dictionaries(
    {"effects": st.lists(_exactly(4, _exactly(4, _exactly(2, _COMPONENTS))), min_size=1,
                         max_size=6)},
    optional={"label": st.text(max_size=8)},
)


@settings(max_examples=100, deadline=None)
@given(_WELL_FORMED)
def test_json_parse_is_bitwise_the_walk_on_well_formed_payloads(payload):
    parsed = _parsed(povm_from_dict, payload)
    assert isinstance(parsed[0], str)
    assert parsed == _parsed(povm_from_dict_walk, payload)


@settings(max_examples=300, deadline=None)
@given(malformed_povm_payloads())
def test_json_parse_rejects_malformed_payloads_as_the_walk_does(payload):
    parsed = _parsed(povm_from_dict, payload)
    assert parsed[0] is InvalidPovmError
    assert parsed == _parsed(povm_from_dict_walk, payload)


class _Row(list):
    pass


@pytest.mark.parametrize(
    "replace",
    [
        pytest.param(lambda e: e[0][1].__setitem__(2, (0.25, 0.0)), id="tuple-entry"),
        pytest.param(lambda e: e[1].__setitem__(3, np.array(e[1][3])), id="ndarray-row"),
        pytest.param(lambda e: e.__setitem__(2, tuple(e[2])), id="tuple-effect"),
        pytest.param(lambda e: e[0][0].__setitem__(0, [np.float64(0.25), np.int64(0)]),
                     id="numpy-scalars"),
        pytest.param(lambda e: e[3].__setitem__(1, _Row(e[3][1])), id="list-subclass"),
        pytest.param(lambda e: e[2][2][2].__setitem__(0, np.bool_(True)), id="numpy-bool"),
    ],
)
def test_json_parse_of_other_python_types_matches_the_walk(replace):
    payload = povm_to_dict(werner_bell_povm(0.5))
    replace(payload["effects"])
    assert _parsed(povm_from_dict, payload) == _parsed(povm_from_dict_walk, payload)


def _reference_werner_bell(lam):
    """The Werner-Bell effects from outer products of the Bell vectors."""
    vectors = map(bell_state, (1, 2, 3, 4))
    return np.array([lam * np.outer(v, v.conj()) + (1 - lam) / 4 * np.eye(4) for v in vectors])


def _reference_asymmetric(x, lam):
    """The asymmetric effects summed from outer products of the basis vectors."""
    params = AsymmetricPovmParams(x, lam)
    effects = []
    for main, partner, prod in ((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2)):
        pieces = (
            (x, lambda_basis(lam, main)),
            (params.w1, lambda_basis(lam, partner)),
            (params.w2, product_basis(prod)),
        )
        effects.append(sum(w * np.outer(v, v.conj()) for w, v in pieces))
    return np.array(effects)


def test_array_builders_match_scalar_builders():
    from entswap.povm import asymmetric_effects, werner_bell_effects

    lams = np.concatenate([LAMBDA_GRID, [1e-12, 0.123456789, 1 - 1e-12]])
    stacked = werner_bell_effects(lams)
    assert stacked.shape == (lams.size, 4, 4, 4)
    for lam, effects in zip(lams, stacked):
        reference = _reference_werner_bell(lam)
        assert np.array_equal(effects, reference)
        assert np.array_equal(np.array(werner_bell_povm(lam).effects), reference)
    for x in (*X_PRESETS, 0.0, 0.05, 0.95, 1.0):
        for lam, effects in zip(lams, asymmetric_effects(x, lams)):
            reference = _reference_asymmetric(x, lam)
            assert np.array_equal(effects, reference)
            assert np.array_equal(np.array(asymmetric_povm(x, lam).effects), reference)
    assert werner_bell_povm(0.25).label == "werner-bell(lam=0.25)"
    assert asymmetric_povm(0.3, 0.25).label == "asymmetric(x=0.3, lam=0.25)"
    with pytest.raises(BadParamError, match="got -0.1"):
        werner_bell_effects([0.5, -0.1])
    with pytest.raises(BadParamError, match="x must be"):
        asymmetric_effects(1.5, lams)
    for build, message in (
        (lambda: asymmetric_povm(1.5, 0.5), "x must be in [0, 1], got 1.5"),
        (lambda: asymmetric_povm(1.5, 1.5), "x must be in [0, 1], got 1.5"),
        (lambda: asymmetric_povm(0.3, 1.5), "sharpness must be in [0, 1], got 1.5"),
        (lambda: werner_bell_povm(1.5), "sharpness must be in [0, 1], got 1.5"),
        (lambda: asymmetric_povm(0.3, float("nan")), "sharpness must be in [0, 1], got nan"),
        (lambda: werner_bell_povm(float("nan")), "sharpness must be in [0, 1], got nan"),
    ):
        with pytest.raises(BadParamError) as info:
            build()
        assert str(info.value) == message


def test_swap_stack_ok_agrees_with_validate():
    from entswap.swap import swap_stack

    gen = rng(11)
    candidates = [random_povm(gen).effects for _ in range(6)]
    nan_effect = I4 / 4
    nan_effect[3, 0] = float("nan")
    candidates += [
        tuple(1.001 * e for e in candidates[0]),
        (I4 / 2, I4 / 2 + 1e-6 * np.triu(np.ones((4, 4)), 1), -0 * I4, 0 * I4),
        (1.5 * I4, -0.5 * I4, 0 * I4, 0 * I4),
        (nan_effect, I4 / 4, I4 / 4, I4 / 4),
        # Hermitian, but (E + E^dagger)/2 overflows if summed before halving.
        (np.diag([1.7e308, 1.7e308, 0, 0]), I4, 0 * I4, 0 * I4),
    ]
    flags = swap_stack(np.array(candidates))[0]
    assert flags.tolist() == [validate(Povm(c)) == [] for c in candidates]
    assert flags.tolist() == [True] * 6 + [False] * 5


def test_validate_messages_and_swap_stack_flags():
    from entswap.swap import swap_stack

    nan_effect = I4 / 5
    nan_effect[1, 2] = float("nan")
    skew = np.diag([1.5, 0.5, 0.5, 0.5]).astype(complex)
    skew[0, 1] = 0.1
    cases = [
        ((nan_effect, 0 * I4), ["effect 1: non-finite entry"]),
        (
            (skew, np.diag([-0.5, 0.5, 0.5, 0.5])),
            [
                "effect 1: not Hermitian, residual 1.000e-01",
                "effect 2: negative eigenvalue -5.000e-01",
                "completeness: effects sum deviates from identity by 1.000e-01",
            ],
        ),
        (
            (I4, -0.25 * I4),
            [
                "effect 2: negative eigenvalue -2.500e-01",
                "completeness: effects sum deviates from identity by 2.500e-01",
            ],
        ),
        (
            (np.diag([4 / 3, 0.5, 0.5, 0.5]), np.diag([-1 / 3, 0.5, 0.5, 0.5])),
            [
                "effect 1: eigenvalue 1.33333333333 exceeds 1",
                "effect 2: negative eigenvalue -3.333e-01",
            ],
        ),
        ((I4 / 2, I4 / 4), ["completeness: effects sum deviates from identity by 2.500e-01"]),
        ((I4 / 5,) * 5, []),
        (
            (I4 / 5, I4 / 5, 2 * I4, I4 / 5, I4 / 5),
            [
                "effect 3: eigenvalue 2 exceeds 1",
                "completeness: effects sum deviates from identity by 1.800e+00",
            ],
        ),
        (
            (I4 / 5, -I4 / 5, I4 / 5, nan_effect, 1.5 * I4),
            [
                "effect 2: negative eigenvalue -2.000e-01",
                "effect 4: non-finite entry",
                "effect 5: eigenvalue 1.5 exceeds 1",
            ],
        ),
    ]
    for effects, messages in cases:
        assert validate(Povm(effects)) == messages
        assert swap_stack(np.array([effects]))[0].tolist() == [messages == []]


def test_json_parse_names_the_first_fault_in_document_order():
    # Effect 1 has a bad entry at row 2, column 1, and effect 2 a row of 3
    # entries: the walk meets effect 1's fault first.
    payload = povm_to_dict(werner_bell_povm(0.5))
    payload["effects"][0][2][1] = [0.25, "x"]
    payload["effects"][1][3] = payload["effects"][1][3][:3]
    message = "effect 1, row 2, column 1: expected an [re, im] pair of finite numbers"
    assert _parsed(povm_from_dict, payload) == (InvalidPovmError, message)
    assert _parsed(povm_from_dict_walk, payload) == (InvalidPovmError, message)

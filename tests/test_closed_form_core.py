"""The plain-float closed-form core (``swap._closed_form_core``) and its readers.

The public closed forms, the bisection's root prediction and the closed-form
grid of ``verify`` and ``sweep(pipeline="analytic")`` all read the core.
These tests hold it to the public closed forms bit for bit, pin public
fields and the threshold roots as ``float.hex``, count the objects and
engine calls the threshold path makes, and feed the scalar boundary its
odd inputs.

``golden/threshold_roots.json`` holds the 144 ``threshold_scan`` queries of
``perfbench/workloads.py`` at seeds 1-3, each with its root from the tree
before the core existed.
"""

import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entswap
from entswap import (
    AsymmetricPovmParams,
    BadParamError,
    Case1ClosedForms,
    Case2ClosedForms,
    CorrelationReport,
    NotAStateError,
    analysis,
    case1_closed_forms,
    case2_closed_forms,
    s_of_lambda,
)
from entswap.measures import nonlocality_from_pair_sum, steering3_from_total
from entswap.swap import PAIRS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "threshold_roots.json"), encoding="utf-8") as fh:
    QUERIES = json.load(fh)


def bits(values) -> list[str]:
    """Each value as ``float.hex``, which tells every bit, -0.0 from 0.0 too."""
    return [float(v).hex() for v in values]


def count_inits(monkeypatch, classes) -> dict:
    """A map from each class to the number of instances built from now on."""
    built = dict.fromkeys(classes, 0)
    for cls in classes:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_golden_roots_bitwise_at_one_engine_call_and_one_scalar_run_each(monkeypatch):
    engine, runs = [], []
    real_values, real_run_swap = analysis._signed_values, analysis.run_swap
    monkeypatch.setattr(analysis, "_signed_values", lambda *a: engine.append(1) or real_values(*a))
    monkeypatch.setattr(analysis, "run_swap", lambda p: runs.append(p) or real_run_swap(p))
    built = count_inits(monkeypatch, (Case1ClosedForms, Case2ClosedForms, AsymmetricPovmParams))
    roots = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", entswap.NonMonotoneWarning)
        for q in QUERIES:
            result = entswap.find_threshold(
                q["case"], q["x"], q["pair"], q["measure"], tuple(q["bracket"]), q["tol"]
            )
            roots.append(result.root.hex())
    assert len(QUERIES) == 144
    assert roots == [q["root"] for q in QUERIES]
    assert (len(engine), len(runs)) == (144, 144)
    # The root prediction reads the core, which builds no closed-form object.
    assert built == dict.fromkeys(built, 0)


@pytest.mark.parametrize("case", analysis.PRESETS)
def test_closed_form_grid_builds_no_report(monkeypatch, case):
    family = analysis._family(case, None)
    built = count_inits(monkeypatch, (CorrelationReport, Case1ClosedForms, Case2ClosedForms))
    values = analysis._closed_form_values(family, np.linspace(0.0, 1.0, 101), 1e-9)
    assert values.shape == (101, 3, 6)
    assert built == dict.fromkeys(built, 0)


_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(x=st.none() | _UNIT, lam=_UNIT, tol=st.sampled_from([1e-9, 1e-3, 0.2]))
@example(x=None, lam=0.0, tol=1e-9)
@example(x=None, lam=1.0, tol=1e-9)
@example(x=0.0, lam=0.0, tol=1e-9)
@example(x=1.0, lam=1.0, tol=1e-9)
@example(x=0.725, lam=0.9999579110831897, tol=1e-9)
def test_core_readers_equal_the_public_closed_forms_bitwise(x, lam, tol):
    forms = case1_closed_forms(lam) if x is None else case2_closed_forms(x, lam)
    family = analysis._family("I" if x is None else "II", x)
    [row] = analysis._closed_form_values(family, np.array([lam]), tol)
    core = family.closed_forms(lam)
    for p, pair in enumerate(PAIRS):
        assert bits(row[p]) == bits(forms.report(pair, tol).values().values()), pair
        negativity, m_value, lambda3 = forms.quantities(pair)
        expected = {
            "negativity": negativity,
            "steering2": nonlocality_from_pair_sum(m_value),
            "steering3": steering3_from_total(lambda3),
            "nonlocality": nonlocality_from_pair_sum(m_value),
        }
        for measure in analysis.MEASURES:
            signed = analysis._closed_signed(measure, *core[p])
            assert type(signed) is float
            assert bits([signed]) == bits([expected[measure]]), (pair, measure)


def fields(value) -> dict:
    """The fields of a closed-form object as (type name, float.hex), nested objects as dicts."""
    out = {}
    for field in dataclasses.fields(value):
        v = getattr(value, field.name)
        if dataclasses.is_dataclass(v):
            out[field.name] = fields(v)
        elif isinstance(v, tuple):
            out[field.name] = [(type(e).__name__, float(e).hex()) for e in v]
        else:
            out[field.name] = (type(v).__name__, float(v).hex())
    return out


PARAMS = {
    "x": ("float", "0x1.3333333333333p-2"), "lam": ("float", "0x1.3333333333333p-1"),
    "y1": ("float", "0x1.551bce45757bbp-1"), "y2": ("float", "0x1.3333333333333p-3"),
    "w1": ("float", "0x1.2489395994cc5p-1"), "w2": ("float", "0x1.0774b43346684p-3"),
    "a": ("float", "0x1.b6f9a151739e5p-2"), "b": ("float", "0x1.ce916c7a07dbbp-1"),
    "e": ("float", "0x1.6f45defb52b2fp-2"), "f": ("float", "0x1.2c05238f59324p-1"),
    "g": ("float", "0x1.6f6d13b8b54afp-1"), "h": ("float", "0x1.4a387ca60866bp-4"),
    "q": ("float", "0x1.ae7a409d97976p-4"), "r": ("float", "0x1.0774b43346684p-3"),
}

CASE1 = {
    "lam": ("float", "0x1.999999999999ap-2"), "s": ("float64", "0x1.bfb8bb44f0d8cp-1"),
    "negativity_14": ("float", "0x1.99999999999a0p-4"), "steering3_14": ("float", "0x0.0p+0"),
    "nonlocality_14": ("float", "0x0.0p+0"), "negativity_12": ("float", "0x1.9f9518e769452p-1"),
    "steering3_12": ("float", "0x1.67ea6ab0407c8p-1"),
    "nonlocality_12": ("float", "0x1.248a32fdd2109p-1"),
}

CASE2 = {
    "x": ("float", "0x1.7333333333333p-1"), "lam": ("float", "0x1.ccccccccccccdp-1"),
    "params": {
        "x": ("float", "0x1.7333333333333p-1"), "lam": ("float", "0x1.ccccccccccccdp-1"),
        "y1": ("float", "0x1.bb8234abdbe22p-2"), "y2": ("float", "0x1.ccccccccccccdp-3"),
        "w1": ("float", "0x1.72a6554a0adb2p-3"), "w2": ("float", "0x1.8119bbd250b05p-4"),
        "a": ("float", "0x1.2b5f257c880c9p-1"), "b": ("float", "0x1.9f5b22bcede15p-1"),
        "e": ("float", "0x1.39fbd09cdc761p-2"), "f": ("float", "0x1.695fbf8dba734p-1"),
        "g": ("float", "0x1.24648e63a5d69p-1"), "h": ("float", "-0x1.9de326fc7bac6p-3"),
        "q": ("float", "-0x1.083e7297dc80fp-2"), "r": ("float", "0x1.8119bbd250b05p-4"),
    },
    "negativity_14": ("float64", "0x1.b8e9124306bd3p-2"),
    "negativity_12": ("float", "0x1.6794b1e53805ep-2"),
    "negativity_34": ("float", "0x1.12f9b84934244p-2"),
    "t_14": [("float", "0x1.10c0db94eba45p-2")] * 2 + [("float", "0x1.518d9562fe247p-1")],
    "t_12": [("float", "0x1.7fb015c8caa84p-3")] * 2 + [("float", "0x1.6660795524e41p-1")],
    "t_34": [("float", "0x1.f65fda0810342p-4")] * 2 + [("float", "0x1.6660795524e41p-1")],
}


@pytest.mark.parametrize("build, expected", [
    (lambda: case1_closed_forms(0.4), CASE1),
    (lambda: case2_closed_forms(0.725, 0.9), CASE2),
    (lambda: AsymmetricPovmParams(0.3, 0.6), PARAMS),
], ids=["case1", "case2", "params"])
def test_public_closed_form_fields_keep_their_bits_and_types(build, expected):
    assert fields(build()) == expected


def stub_family(at: dict):
    """A family whose closed forms are those of case I, or at[lam] where given."""
    real = analysis._family("I", None)
    return real._replace(closed_forms=lambda lam: at.get(lam) or real.closed_forms(lam))


def test_closed_form_grid_raises_the_report_error_at_the_first_hierarchy_break():
    # Pair (1,2) steerable (S3 = 1) with no entanglement breaks the hierarchy.
    broken = ((0.5, (0.25,) * 3), (-0.1, (1.0, 1.0, 1.0)), (0.5, (0.25,) * 3))
    lams = np.array([0.25, 0.5, 0.75, 1.0])
    family = stub_family({0.5: broken, 0.75: broken[::-1]})
    with pytest.raises(NotAStateError) as scalar:
        CorrelationReport.from_quantities(-0.1, 2.0, 3.0, 1e-9)
    with pytest.raises(NotAStateError) as raised:
        analysis._closed_form_values(family, lams, 1e-9)
    assert str(raised.value) == f"lambda=0.5: {scalar.value}"
    assert str(scalar.value).startswith("correlation hierarchy violated: N=1.000e+00, S3=1.000e+00")
    # Where the hierarchy holds, the stub's values come out as report's.
    fine = stub_family({0.5: broken[:1] * 3})
    row = analysis._closed_form_values(fine, lams, 1e-9)[1]
    expected = CorrelationReport.from_quantities(0.5, 0.5, 0.75).values().values()
    for p in range(3):
        assert bits(row[p]) == bits(expected)


ODD = [
    math.nan, math.inf, -math.inf, 1e308, -0.0, True, "0.5", [0.5], np.float32(0.5), np.array(0.5),
]

# The message of every odd input the scalar checks reject, as given before the
# closed forms read the core.
REJECTED = {
    "nan": "nan", "inf": "inf", "-inf": "-inf", "1e+308": "1e+308", "'0.5'": "'0.5'",
    "[0.5]": "[0.5]",
}

SCALAR_CALLS = [
    ("sharpness", lambda v: case1_closed_forms(v)),
    ("x", lambda v: case2_closed_forms(v, 0.5)),
    ("sharpness", lambda v: case2_closed_forms(0.5, v)),
    ("x", lambda v: AsymmetricPovmParams(v, 0.5)),
    ("sharpness", lambda v: AsymmetricPovmParams(0.5, v)),
    ("sharpness", lambda v: s_of_lambda(v)),
]


def finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(finite, value))
    return math.isfinite(value)


@pytest.mark.parametrize("value", ODD, ids=repr)
@pytest.mark.parametrize("name, call", SCALAR_CALLS)
def test_odd_scalars_raise_the_unit_error_or_give_finite_fields(name, call, value):
    # The suite turns every numpy warning into an error, so a warning fails here too.
    shown = REJECTED.get(repr(value))
    if shown is None:
        assert finite(call(value))
    else:
        with pytest.raises(BadParamError) as raised:
            call(value)
        assert str(raised.value) == f"{name} must be in [0, 1], got {shown}"


# SHA-256 of the fields of every public closed form on the grid below, as
# ``fields`` gives them, from the tree before the core existed.
GRID_DIGEST = "77be99bb62b2d2336f6967cb03dc2a9bc65ece4fec612bcbc2282cfac4093665"


def grid_digest() -> str:
    """The SHA-256 that GRID_DIGEST pins; ``tests/test_golden.py`` prints it
    when run as a script."""
    lams = [*np.linspace(0.0, 1.0, 101).tolist(), 1 / 3, 0.9999579110831897, 5e-324]
    xs = [*np.linspace(0.0, 1.0, 11).tolist(), 0.725, 0.05, 0.95]
    forms = [case1_closed_forms(lam) for lam in lams]
    forms += [case2_closed_forms(x, lam) for x in xs for lam in lams]
    text = repr([fields(f) for f in forms])
    return hashlib.sha256(text.encode()).hexdigest()


def test_public_closed_forms_on_a_grid_keep_their_bits_and_types():
    assert grid_digest() == GRID_DIGEST


def assert_pairs_12_and_34_agree_at_full_sharpness(case: str, x: float | None) -> None:
    """At lambda = 1, a == b, so f == g: the (1,2) and (3,4) states have the
    same six quantifiers, bitwise in the closed forms and within VERIFY_TOL
    in the engine, for every outcome.

    So no grid holding lambda = 1 can pass acceptance criterion 5, which
    asks pair (1,2) of case III to be three-setting steerable at every
    positive lambda and pair (3,4) at none: x = 0.725 lies just inside the
    band 0.0073086 < x < 0.7256290 where both are steerable at lambda = 1.
    """
    family = analysis._family(case, x)
    core = family.closed_forms(1.0)
    assert core[1] == core[2]
    _, values, kept = analysis._grid_values(family, np.array([1.0]), 1e-9)
    assert kept.all()
    assert np.abs(values[..., 1, :] - values[..., 2, :]).max() <= analysis.VERIFY_TOL


@pytest.mark.parametrize("case", analysis.PRESETS)
def test_pairs_12_and_34_agree_at_full_sharpness(case):
    assert_pairs_12_and_34_agree_at_full_sharpness(case, None)


@settings(max_examples=30, deadline=None)
@given(x=_UNIT)
@example(x=0.0)
@example(x=1.0)
def test_pairs_12_and_34_agree_at_full_sharpness_for_every_x(x):
    assert_pairs_12_and_34_agree_at_full_sharpness("II", x)

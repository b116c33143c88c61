"""Threshold bisection on the batched engine.

``analysis.bisect`` must repeat ``scipy.optimize.bisect`` step for step, so
scipy serves as the oracle here; the package itself never imports it.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entswap
from entswap import (
    EntswapError,
    NoBracketError,
    case1_closed_forms,
    case2_closed_forms,
    classify_table,
    find_threshold,
)
from entswap import analysis
from entswap.measures import nonlocality_from_pair_sum, steering3_from_total
from helpers import random_povm, rng

TOLS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)


def signed_closed_form(x, pair: str, measure: str):
    """The signed quantifier of outcome 1 as a function of lambda, from the
    closed forms of case I (x None) or of the asymmetric family at x."""

    def f(lam: float) -> float:
        if x is None:
            forms = case1_closed_forms(lam)
            w = lam if pair == "14" else forms.s
            negativity, t = (3.0 * w - 1.0) / 2.0, (w * w,) * 3
        else:
            forms = case2_closed_forms(x, lam)
            negativity = float(getattr(forms, f"negativity_{pair}"))
            t = sorted(getattr(forms, f"t_{pair}"), reverse=True)
        if measure == "negativity":
            return negativity
        if measure == "steering3":
            return float(steering3_from_total(t[0] + t[1] + t[2]))
        return float(nonlocality_from_pair_sum(t[0] + t[1]))

    return f


def one_bracket(f, lo, hi, tol):
    g = lambda x: np.array([f(v) for v in x])
    return analysis.bisect(g, lo, hi, f(lo), f(hi), tol, np.nan)


def random_brackets(count: int):
    """(f, lo, hi, tol) with f changing sign on [lo, hi], over the four measures."""
    gen = rng(61)
    out = []
    while len(out) < count:
        measure = analysis.MEASURES[len(out) % 4]
        x = None if gen.random() < 0.25 else float(gen.uniform(0.05, 0.95))
        pair = ("14", "12", "34")[int(gen.integers(3))]
        f = signed_closed_form(x, pair, measure)
        lo, hi = sorted(gen.uniform(0.0, 1.0, 2).tolist())
        if f(lo) * f(hi) < 0:
            out.append((f, lo, hi, TOLS[int(gen.integers(len(TOLS)))]))
    return out


BRACKETS = random_brackets(400)


def test_bisect_matches_scipy_bitwise_on_random_brackets():
    for f, lo, hi, tol in BRACKETS:
        expected = scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
        assert one_bracket(f, lo, hi, tol) == expected, (lo, hi, tol)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (signed_closed_form(None, "14", "negativity"), 1 / 3, 0.9),  # f(lo) == 0
        (signed_closed_form(None, "14", "negativity"), 0.1, 1 / 3),  # f(hi) == 0
        (lambda lam: lam - 0.5, 0.0, 1.0),  # f(xm) == 0 at the first step
        (lambda lam: lam - 0.375, 0.0, 1.0),  # f(xm) == 0 at the third step
        (lambda lam: 0.0, 0.2, 0.7),  # zero at both ends
    ],
    ids=["zero-at-lo", "zero-at-hi", "zero-at-step-1", "zero-at-step-3", "zero-at-both"],
)
def test_bisect_matches_scipy_on_exact_zeros(f, lo, hi):
    expected = scipy.optimize.bisect(f, lo, hi, xtol=1e-12)
    assert one_bracket(f, lo, hi, 1e-12) == expected


# f(x) = x on [-1, 0.5] never hits 0 exactly, so after k steps dm = 1.5 * 2**-k
# and the first step with dm below xtol is the last. xtol = 1.5 times dm at
# step k converges at step k: within the 200 allowed for k <= 200, not for 201.
@pytest.mark.parametrize("steps", [199, 200, 201])
def test_bisect_runs_out_of_iterations_where_scipy_does(steps):
    f, lo, hi = (lambda lam: lam), -1.0, 0.5
    tol = 1.5 * (1.5 * 2.0**-steps)
    if steps <= 200:
        _, info = scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200, full_output=True)
        assert info.iterations == steps
        assert one_bracket(f, lo, hi, tol) == info.root
    else:
        with pytest.raises(RuntimeError):
            scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
        with pytest.raises(EntswapError, match="did not converge in 200 iterations"):
            one_bracket(f, lo, hi, tol)


def counted(f):
    """``f`` as an ``analysis.bisect`` callback that records each call's points."""

    def g(x):
        g.calls.append(np.array(x))
        return np.array([f(v) for v in x])

    g.calls = []
    return g


def scipy_path(f, lo, hi, tol):
    """The midpoints ``scipy.optimize.bisect`` evaluates, in order."""
    points = []

    def record(x):
        points.append(x)
        return f(x)

    try:
        scipy.optimize.bisect(record, lo, hi, xtol=tol, maxiter=200)
    except RuntimeError:
        pass
    return points[2:]  # after f(lo) and f(hi)


def step_function(c: float):
    """-1e-12 below c and 1 from c on: regula falsi puts every estimate
    next to the small end, so the predicted path is mostly wrong."""
    return lambda lam: 1.0 if lam >= c else -1e-12


@pytest.mark.parametrize("steps", [1, 4, 5, 30, 199, 200, 201])
def test_bisect_calls_f_at_most_once_per_step(steps):
    # As in the maxiter test: f with the signs of x on [-1, 0.5] converges at
    # step k. Its steps alternate, a moves at every other one, and the
    # estimate next to a predicts that a never moves, so every call leaves
    # the path within two steps; each still takes at least one.
    f, lo, hi = step_function(0.0), -1.0, 0.5
    tol = 1.5 * (1.5 * 2.0**-steps)
    g = counted(f)
    if steps <= 200:
        root = analysis.bisect(g, lo, hi, f(lo), f(hi), tol, np.nan)
        assert root == scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
    else:
        with pytest.raises(EntswapError, match="did not converge in 200 iterations"):
            analysis.bisect(g, lo, hi, f(lo), f(hi), tol, np.nan)
    assert len(g.calls) <= min(steps, 200)
    # The first call takes one predicted point per level from the first
    # midpoint. The path runs next to -1, so it ends where the steps would
    # stop there: at level steps, or at level 51, where 4 eps |x| outweighs
    # the smaller tolerances.
    x = g.calls[0]
    assert x[0] == lo + 0.75
    assert x.size == min(steps, 51)


@pytest.mark.parametrize("steps", [1, 4, 5, 30, 199, 200, 201])
def test_bisect_linear_f_takes_one_call(steps):
    # f(x) = x on [-1, 0.5] converges at step k. Regula falsi on the ends
    # puts the estimate at the root, 0, so one call covers every step, at
    # most 200.
    f, lo, hi = (lambda lam: lam), -1.0, 0.5
    tol = 1.5 * (1.5 * 2.0**-steps)
    g = counted(f)
    if steps <= 200:
        root = analysis.bisect(g, lo, hi, f(lo), f(hi), tol, np.nan)
        assert root == scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
    else:
        with pytest.raises(EntswapError, match="did not converge in 200 iterations"):
            analysis.bisect(g, lo, hi, f(lo), f(hi), tol, np.nan)
    assert len(g.calls) == 1
    # The call takes scipy's path, down to the level where its steps stop,
    # here min(steps, 200).
    path = scipy_path(f, lo, hi, tol)
    assert len(path) == min(steps, 200)
    assert g.calls[0].tolist() == path


@pytest.mark.parametrize(
    "f, lo, hi, tol, guess",
    [
        (lambda lam: lam - 0.3, 0.0, 1.0, 1e-12, 0.9),  # wrong guess
        (lambda lam: lam - 0.3, 0.0, 1.0, 1e-12, 0.0),  # guess on an end
        (lambda lam: lam - 0.3, 0.0, 1.0, 1e-12, 7.0),  # guess outside: the end's path
        (lambda lam: lam - 0.3, 0.0, 1.0, 1e-12, float("nan")),  # falls back
        (step_function(0.3), 0.0, 1.0, 1e-12, float("nan")),
        (step_function(0.7), 1.0, 0.0, 1e-11, float("nan")),  # reversed bracket
        (step_function(0.123456789), 0.0, 1.0, 1e-15, 0.999),
        (step_function(0.0), -1.0, 0.5, 1.5 * 1.5 * 2.0**-200, float("nan")),  # 200 steps
        (lambda lam: np.expm1(40.0 * (lam - 0.9)), 0.0, 1.0, 1e-12, float("nan")),
        (lambda lam: np.cbrt(lam - 0.61), 0.0, 1.0, 1e-13, 0.01),
        (lambda lam: lam, -1.0, 0.5, 1.5 * 1.5 * 2.0**-200, 0.5),  # the last allowed step
        # Infinite end values: regula falsi puts the estimate on the first
        # end, or gives NaN when both ends are infinite.
        (lambda lam: np.inf if lam == 1.0 else lam - 0.3, 0.0, 1.0, 1e-12, float("nan")),
        (lambda lam: -np.inf if lam == 1.0 else 0.3 - lam, 0.0, 1.0, 1e-12, float("nan")),
        (lambda lam: {0.0: -np.inf, 1.0: np.inf}.get(lam, lam - 0.7), 0.0, 1.0, 1e-11,
         float("nan")),
    ],
)
def test_bisect_takes_at_least_one_step_per_call(f, lo, hi, tol, guess):
    # Each call takes at least the step its first point is for, and
    # evaluates at most one point per step left: a root of n steps takes at
    # most n calls and n (n + 1) / 2 points.
    root, info = scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200, full_output=True)
    g = counted(f)
    assert analysis.bisect(g, lo, hi, f(lo), f(hi), tol, guess) == root
    n = info.iterations
    assert len(g.calls) <= n
    assert sum(x.size for x in g.calls) <= n * (n + 1) // 2


def test_bisect_runs_out_of_iterations_on_a_wrong_guess():
    # f has the signs of x on [-1, 0.5], so it needs step 201, as in the maxiter test.
    f, lo, hi, tol = step_function(0.0), -1.0, 0.5, 1.5 * (1.5 * 2.0**-201)
    with pytest.raises(RuntimeError):
        scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
    g = counted(f)
    with pytest.raises(EntswapError) as raised:
        analysis.bisect(g, lo, hi, f(lo), f(hi), tol, 0.4)
    assert str(raised.value).startswith("bisection did not converge in 200 iterations, bracket [")
    assert 2 <= len(g.calls) <= 200


@st.composite
def smooth_brackets(draw):
    """(f, lo, hi, root) with f smooth and of opposite signs at lo and hi."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(1e-6, 3.0))
    root = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    slope = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["cubic", "expm1", "tanh"]))
    bend = draw(st.floats(0.0, 30.0))
    if kind == "cubic":
        f = lambda lam: slope * ((lam - root) + bend * (lam - root) ** 3)
    elif kind == "expm1":
        f = lambda lam: slope * float(np.expm1(bend * (lam - root))) + slope * (lam - root)
    else:
        f = lambda lam: slope * float(np.tanh((1.0 + bend) * (lam - root)))
    return f, lo, hi, root


guesses = st.sampled_from(["good", "bad", "outside", "nan"])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(smooth_brackets(), guesses), min_size=1, max_size=4),
    st.sampled_from(TOLS + (1e-13, 1e-3)),
)
# Signs whose products underflow to 0: the root 5e-324 is near 0, not 0.5,
# and two positive ends bracket nothing.
@example([((lambda lam: lam - 5e-324, 0.0, 1.0, 5e-324), "nan")], 1e-5)
@example([((lambda lam: 5e-324, 0.0, 1.0, 0.5), "nan")], 1e-5)
def test_bisect_equals_scipy_on_smooth_brackets(brackets, tol):
    for (f, lo, hi, root), kind in brackets:
        guess = {
            "good": root + 1e-3 * tol,
            "bad": hi - 0.1 * (root - lo),
            "outside": lo - 5.0,
            "nan": float("nan"),
        }[kind]
        f_lo, f_hi = f(lo), f(hi)
        g = lambda x: [f(v) for v in x]
        if not np.sign(f_lo) * np.sign(f_hi) <= 0:
            with pytest.raises(ValueError, match="different signs"):
                scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
            with pytest.raises(NoBracketError):
                analysis.bisect(g, lo, hi, f_lo, f_hi, tol, guess)
            continue
        root = analysis.bisect(g, lo, hi, f_lo, f_hi, tol, guess)
        assert root == scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)


def test_bisect_raises_on_nan_at_an_end():
    g = counted(lambda lam: lam - 0.3)
    for fa, fb, x in ((np.nan, 0.7, 0.0), (-0.3, np.nan, 1.0)):
        with pytest.raises(EntswapError) as raised:
            analysis.bisect(g, 0.0, 1.0, fa, fb, 1e-12, np.nan)
        assert str(raised.value) == f"the function value at x={x!r} is NaN"
    assert g.calls == []


@pytest.mark.parametrize("nan_at", [0.75, 0.90625])
def test_bisect_ignores_nan_on_a_mispredicted_path(nan_at):
    # With the estimate at 0.9 the predicted path is 0.5, 0.75, 0.875, 0.9375,
    # 0.90625, ... f(0.5) > 0 moves b to 0.5, so the walk leaves that path
    # at the first step, and never reaches the NaN.
    f = lambda lam: lam - 0.3
    g = counted(lambda lam: float("nan") if lam == nan_at else f(lam))
    root = analysis.bisect(g, 0.0, 1.0, f(0.0), f(1.0), 1e-12, 0.9)
    assert nan_at in g.calls[0]
    assert root == scipy.optimize.bisect(f, 0.0, 1.0, xtol=1e-12)


def test_bisect_raises_on_nan_deep_on_the_predicted_path():
    # The estimate is the root, so the first call's path holds scipy's 20th midpoint.
    f = lambda lam: lam - 0.3
    x20 = scipy_path(f, 0.0, 1.0, 1e-12)[19]
    g = counted(lambda lam: float("nan") if lam == x20 else f(lam))
    with pytest.raises(EntswapError) as raised:
        analysis.bisect(g, 0.0, 1.0, f(0.0), f(1.0), 1e-12, np.nan)
    assert str(raised.value) == f"the function value at x={x20!r} is NaN"
    assert len(g.calls) == 1


def test_bisect_raises_on_nan_on_the_path():
    # The first step moves b to 0.5, so the second evaluates 0.25.
    f = lambda lam: float("nan") if lam == 0.25 else lam - 0.3
    with pytest.raises(EntswapError) as raised:
        one_bracket(f, 0.0, 1.0, 1e-12)
    assert str(raised.value) == "the function value at x=0.25 is NaN"


@pytest.mark.parametrize("case, key", [("II", ("12", "steering2")), ("III", ("14", "steering3"))])
def test_classify_table_at_coarse_tol_bisects_the_crossing_of_tol(case, key):
    # The grid flips across tol where the quantifier is positive on both
    # sides, so that end is where the signed quantifier crosses tol.
    tol, root_tol = 1e-3, 1e-9
    grid = np.linspace(0.0, 1.0, 101)
    table = classify_table(case, grid=grid, tol=tol, root_tol=root_tol)
    x = analysis.CASE_PRESETS[case]
    targets = {}
    for (pair, measure), interval in table.items():
        if interval.threshold is None:
            continue
        f = signed_closed_form(x, pair, measure)
        i = int(np.searchsorted(grid, interval.threshold)) - 1
        negative_end = grid[i] if interval.kind == "above" else grid[i + 1]
        target = 0.0 if f(negative_end) <= 0.0 else tol
        # The closed form crosses the target within root_tol of the threshold.
        below, above = (f(interval.threshold + d) - target for d in (-root_tol, root_tol))
        assert below * above <= 0.0, (pair, measure)
        targets[pair, measure] = target
    assert targets[key] == tol
    assert table[key].kind == "above"


def test_find_threshold_resolves_the_case3_sliver():
    # Pair (3,4) of case III turns steerable just below lambda = 1.
    f = signed_closed_form(analysis.CASE_PRESETS["III"], "34", "steering3")
    oracle = scipy.optimize.brentq(f, 0.9999, 1.0, xtol=1e-15)
    assert abs(oracle - 0.9999579110831897) < 1e-15
    root = find_threshold("III", None, "34", "steering3", (0.9999, 1.0)).root
    assert abs(root - oracle) < 1e-9


def test_find_threshold_checks_the_engine_against_the_scalar_pipeline(monkeypatch):
    real = analysis.measures._signed_rows

    def perturbed(states, columns):
        values, ok = real(states, columns)
        return values + 1e-6, ok

    monkeypatch.setattr(analysis.measures, "_signed_rows", perturbed)
    with pytest.raises(
        EntswapError,
        match=r"^lambda=0\.3333\d+: batched engine deviates from the scalar pipeline "
        r"at outcome 1: pair 14 negativity is ",
    ):
        find_threshold("I", None, "14", "negativity", (0.2, 0.5))


def test_find_threshold_checks_its_root_against_the_scalar_pipeline(monkeypatch):
    # The last step moves b, so the root is not the first end of the final
    # bracket; the scalar check names the root.
    bracket = (0.2, 0.5)
    root = find_threshold("I", None, "14", "negativity", bracket).root
    f = one_point("I", "14", "negativity")
    assert f(root) > 0.0 > f(bracket[0])
    real = analysis._signed_pair_value
    monkeypatch.setattr(analysis, "_signed_pair_value", lambda *args: real(*args) + 1e-6)
    with pytest.raises(
        EntswapError,
        match=rf"^lambda={root:.12g}: batched engine deviates from the scalar pipeline "
        r"at outcome 1: pair 14 negativity is ",
    ):
        find_threshold("I", None, "14", "negativity", bracket)


@pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
def test_classify_table_roots_equal_find_threshold(case):
    grid = np.linspace(0.0, 1.0, 21)
    table = classify_table(case, grid=grid)
    assert table[("12", "steering2")] == table[("12", "nonlocality")]
    for (pair, measure), interval in table.items():
        if interval.threshold is None:
            continue
        i = int(np.searchsorted(grid, interval.threshold)) - 1
        bracket = (float(grid[i]), float(grid[i + 1]))
        assert find_threshold(case, None, pair, measure, bracket).root == interval.threshold


def test_classify_table_at_the_end_of_the_family_meets_the_closed_forms():
    # At x = 0 an effect has exact zero eigenvalues; roots of their rounding
    # noise would move the (3,4) steering3 end by about 1e-8.
    grid, root_tol = np.linspace(0.0, 1.0, 101), 1e-9
    table = classify_table("II", 0.0, grid=grid, root_tol=root_tol)
    ends = 0
    for (pair, measure), interval in table.items():
        if interval.threshold is None:
            continue
        i = int(np.searchsorted(grid, interval.threshold)) - 1
        f = signed_closed_form(0.0, pair, measure)
        root = scipy.optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-15)
        assert abs(interval.threshold - root) <= root_tol, (pair, measure)
        ends += 1
    assert ends == 3


def threshold_draws():
    """find_threshold calls (case, pair, measure, bracket, tol): for every
    case and measure, each pair whose closed form changes sign once on the
    grid, three times, each in a seeded bracket of width 0.25 to 0.35 about
    the root, at the tolerances of TOLS in turn."""
    gen, draws = rng(83), []
    grid = np.linspace(0.0, 1.0, 201)[1:]
    for case in ("I", "II", "III", "IV"):
        x = analysis.CASE_PRESETS.get(case)
        for measure in analysis.MEASURES:
            for pair in ("14", "12", "34"):
                f = signed_closed_form(x, pair, measure)
                flips = np.flatnonzero(np.diff([f(lam) > 0.0 for lam in grid]))
                if flips.size != 1:
                    continue
                root = scipy.optimize.brentq(f, grid[flips[0]], grid[flips[0] + 1], xtol=1e-15)
                for _ in range(3):
                    width = float(gen.uniform(0.25, 0.35))
                    lo = root - float(gen.uniform(0.1, 0.9)) * width
                    lo = min(max(lo, 0.1 * root), 1 - width)
                    tol = TOLS[len(draws) % len(TOLS)]
                    draws.append((case, pair, measure, (lo, lo + width), tol))
    return draws


def engine_points(draws):
    """Roots of ``find_threshold`` on ``draws`` and, per root, the lambdas of
    each of its ``_signed_values`` calls."""
    calls = []
    real = analysis._signed_values

    def recorded(*args):
        calls[-1].append(args[1].tolist())
        return real(*args)

    roots = []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", entswap.NonMonotoneWarning)
        patch.setattr(analysis, "_signed_values", recorded)
        for case, pair, measure, bracket, tol in draws:
            calls.append([])
            roots.append(find_threshold(case, None, pair, measure, bracket, tol).root)
    return roots, calls


def one_point(case, pair, measure):
    """The engine's signed value of outcome 1 at one lambda, one call per point."""
    family = analysis._family(case, None)
    pairs, columns = [analysis.PAIRS.index(pair)], [analysis.MEASURES.index(measure)]
    return lambda lam: float(analysis._signed_values(family, np.array([lam]), pairs, columns)[0])


def one_point_bisect(case, pair, measure, lo, hi, tol):
    """``scipy.optimize.bisect`` on the engine's signed value at one point."""
    return scipy.optimize.bisect(one_point(case, pair, measure), lo, hi, xtol=tol, maxiter=200)


def first_four_levels(lo, hi, tol):
    """The midpoints of the first four steps of ``scipy.optimize.bisect`` on
    [lo, hi], over a root in each of the 16 intervals between them."""
    roots = (lo + (k + 0.5) / 16 * (hi - lo) for k in range(16))
    return {x for r in roots for x in scipy_path(lambda lam: lam - r, lo, hi, tol)[:4]}


def test_probes_are_the_first_four_levels_and_no_point_is_evaluated_twice():
    draws = threshold_draws()
    _, calls = engine_points(draws)
    for (case, pair, measure, (lo, hi), tol), root_calls in zip(draws, calls):
        # The probes: both ends and the 15 midpoints of the first four levels.
        midpoints = first_four_levels(lo, hi, tol)
        assert len(midpoints) == 15
        probes = sorted([lo, hi, *midpoints])
        first = root_calls[0]
        assert sorted(first[:17]) == probes
        # The same call holds the path of the closed-form guess; where it is
        # the only call, that path is every midpoint scipy's steps take.
        if len(root_calls) == 1:
            path = scipy_path(one_point(case, pair, measure), lo, hi, tol)
            assert first[17:] == [x for x in path if x not in probes], (lo, hi, tol)
        points = [lam for lams in root_calls for lam in lams]
        assert len(set(points)) == len(points), (lo, hi, tol)


@pytest.mark.filterwarnings("ignore::entswap.NonMonotoneWarning")
def test_find_threshold_makes_at_most_three_engine_calls_per_root():
    # Guards the closed-form guess whose path shares the probes' call: with
    # a first estimate interpolated through the probes, a call of its own,
    # the same draws took 2.56 calls and 43.1 points per root.
    draws = threshold_draws()
    roots, calls = engine_points(draws)
    assert len(draws) == 39
    assert sum(map(len, calls)) / len(draws) <= 1.1
    assert sum(len(lams) for c in calls for lams in c) / len(draws) <= 45.0
    for (case, pair, measure, (lo, hi), tol), root in zip(draws, roots):
        assert root == one_point_bisect(case, pair, measure, lo, hi, tol)


def engine_call_sizes(monkeypatch, call):
    """The number of lambdas of each ``_signed_values`` call that ``call()`` makes."""
    sizes = []
    real = analysis._signed_values

    def recorded(*args):
        sizes.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(analysis, "_signed_values", recorded)
    call()
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("case, calls, points", [
    ("I", 1, 333), ("II", 0, 0), ("III", 1, 37), ("IV", 0, 0),
])
def test_classify_table_makes_few_engine_calls(monkeypatch, case, calls, points):
    # Guards the bisection's traffic: the probes and the path of every
    # bracket's closed-form guess are one call, which holds every step when
    # the guesses hold. Cases II and IV bisect no interval end.
    counts = engine_call_sizes(monkeypatch, lambda: classify_table(case))
    assert len(counts) <= calls and sum(counts) <= points, counts


def test_a_missed_guess_costs_its_query_one_more_engine_call(monkeypatch):
    # The second of case I's nine interval ends guesses its root at 0.9 of
    # its bracket, off scipy's path, so its walk leaves the first call's
    # path and that query alone takes a second call.
    expected = classify_table("I")
    real = analysis._predicted_root
    queries = []

    def predicted(closed_forms, query):
        queries.append(query)
        _, _, lo, hi, _ = query
        return lo + 0.9 * (hi - lo) if len(queries) == 2 else real(closed_forms, query)

    calls = []
    values = analysis._signed_values

    def recorded(family, lams, pairs, columns):
        calls.append(list(zip(pairs, columns, lams.tolist())))
        return values(family, lams, pairs, columns)

    monkeypatch.setattr(analysis, "_predicted_root", predicted)
    monkeypatch.setattr(analysis, "_signed_values", recorded)
    table = classify_table("I")
    assert len(queries) == 9
    assert table == expected
    assert [r.threshold.hex() for r in table.values() if r.threshold is not None] == [
        r.threshold.hex() for r in expected.values() if r.threshold is not None
    ]
    assert len(calls) == 2 and sum(map(len, calls)) == 353, [len(c) for c in calls]
    # Each (query, lambda) reaches the engine once.
    points = [key for call in calls for key in call]
    assert len(set(points)) == len(points)


def test_classify_table_x_scan_makes_few_engine_calls(monkeypatch):
    xs = [k / 20 for k in range(1, 20)]
    counts = engine_call_sizes(monkeypatch, lambda: [classify_table("II", x) for x in xs])
    assert len(counts) <= 10 and sum(counts) <= 814, counts


def run_swap_calls(monkeypatch, call):
    """The result of ``call()`` and the number of ``run_swap`` runs it made."""
    calls = []
    real = analysis.run_swap
    monkeypatch.setattr(analysis, "run_swap", lambda p: calls.append(p) or real(p))
    result = call()
    monkeypatch.undo()
    return result, len(calls)


def test_find_threshold_runs_the_scalar_pipeline_once(monkeypatch):
    _, runs = run_swap_calls(
        monkeypatch, lambda: find_threshold("I", None, "14", "negativity", (0.2, 0.5))
    )
    assert runs == 1


@pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
def test_classify_table_runs_the_scalar_pipeline_once_per_scan(monkeypatch, case):
    # One run for the grid's last point, and one for the bisection if any
    # interval end is bisected; cases I and III have such ends.
    table, runs = run_swap_calls(monkeypatch, lambda: classify_table(case))
    bisected = any(interval.threshold is not None for interval in table.values())
    assert bisected == (case in ("I", "III"))
    assert runs == 1 + bisected


@pytest.mark.parametrize("call, runs", [
    (lambda: entswap.sweep(entswap.SweepConfig("III")), 1),
    (lambda: entswap.verify("III"), 1),
    # The grid scan and its four refinement scans.
    (lambda: entswap.find_extremum("II", None, "14", "negativity"), 5),
], ids=["sweep", "verify", "find_extremum"])
def test_grid_scans_run_the_scalar_pipeline_once_per_scan(monkeypatch, call, runs):
    assert run_swap_calls(monkeypatch, call)[1] == runs


def mixed_into_noise(state: np.ndarray) -> np.ndarray:
    return (1 - 1e-6) * state + 1e-6 * np.eye(4) / 4


def test_find_threshold_checks_every_engine_point_by_the_identities(monkeypatch):
    # The bracket's midpoint 0.35 is one of the probes of the first engine
    # call, far from both ends of the final bracket about 1/3. The noise
    # keeps the sign of the negativity there, so the roots alone would not
    # show the defect.
    real = analysis._grid_swap
    calls = []

    def perturbed(family, lams, outcomes=None):
        effects, probabilities, states, kept = real(family, lams, outcomes)
        if not calls:
            row = int(np.argmin(np.abs(lams - 0.35)))
            states[row, 0, 0] = mixed_into_noise(states[row, 0, 0])
        calls.append(len(lams))
        return effects, probabilities, states, kept

    monkeypatch.setattr(analysis, "_grid_swap", perturbed)
    with pytest.raises(
        EntswapError,
        match=r"^lambda=0\.35: outcome 1: \(1,4\) state deviates from conj\(E\)/tr\(E\) by "
        r"\d\.\d{3}e-0[78]$",
    ):
        find_threshold("I", None, "14", "negativity", (0.2, 0.5))
    assert len(calls) == 1 and calls[0] > 17


def perturb_probability(probabilities, states):
    probabilities[1, 2] += 1e-6


def perturb_pair(p):
    def perturb(probabilities, states):
        states[1, 2, p] = mixed_into_noise(states[1, 2, p])
    return perturb


@pytest.mark.parametrize("perturb, identity", [
    (perturb_probability, "probability deviates from tr(E)/4"),
    (perturb_pair(0), "(1,4) state deviates from conj(E)/tr(E)"),
    (perturb_pair(1), "qubit-1 marginal of (1,2) deviates from that of (1,4)"),
    (perturb_pair(2), "qubit-4 marginal of (3,4) deviates from that of (1,4)"),
])
def test_each_identity_names_its_defect(perturb, identity):
    # Case III at lambda 0.5: its pair states have marginals other than I/2,
    # so mixing a (1,2) or (3,4) state with noise moves its marginals.
    lams = np.array([0.25, 0.5, 0.75])
    effects = analysis._family("III", None).effects(lams)
    _, probabilities, states, kept = analysis.swap_stack(effects)
    analysis._check_identities(lams, effects, probabilities, states, kept)
    perturb(probabilities, states)
    with pytest.raises(EntswapError) as raised:
        analysis._check_identities(lams, effects, probabilities, states, kept)
    assert str(raised.value).startswith(f"lambda=0.5: outcome 3: {identity} by ")


def test_a_deviation_of_exactly_verify_tol_fails_every_check():
    # One pass rule, deviation < VERIFY_TOL, as in _worst_deviation.
    tol = analysis.VERIFY_TOL
    with pytest.raises(EntswapError, match="^batched engine deviates from the scalar pipeline"):
        analysis._compare(1, [("q", tol, 0.0)])
    analysis._compare(1, [("q", np.nextafter(tol, 0.0), 0.0)])
    effects, states = np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 4, 4))
    with pytest.raises(EntswapError, match=r"^outcome 1: probability deviates from tr\(E\)/4 by"):
        analysis._check_identities(None, effects, np.array([[tol]]), states, np.array([[True]]))


def assert_identities_hold(lams, effects):
    """``_check_identities`` passes the stacked swap of valid effects."""
    ok, probabilities, states, kept = analysis.swap_stack(effects)
    assert ok.all()
    analysis._check_identities(lams, effects, probabilities, states, kept)


_UNIT_WITH_EDGES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(x=_UNIT_WITH_EDGES, lams=st.lists(_UNIT_WITH_EDGES, min_size=1, max_size=8))
@example(x=0.0, lams=[0.0, 1.0])
@example(x=1.0, lams=[0.0, 1.0])
def test_identities_hold_on_the_asymmetric_family(x, lams):
    lams = np.array(lams)
    assert_identities_hold(lams, entswap.povm.asymmetric_effects(x, lams))


@settings(max_examples=50, deadline=None)
@given(lams=st.lists(_UNIT_WITH_EDGES, min_size=1, max_size=8))
def test_identities_hold_on_case_1(lams):
    lams = np.array(lams)
    assert_identities_hold(lams, entswap.povm.werner_bell_effects(lams))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outcomes=st.integers(1, 6), zero=st.booleans())
def test_identities_hold_on_random_povms(seed, outcomes, zero):
    # A zero effect is a degenerate outcome, which the check skips.
    effects = np.array(random_povm(np.random.default_rng(seed), outcomes).effects)
    if zero:
        effects = np.concatenate([effects, np.zeros((1, 4, 4))])
    assert_identities_hold(np.array([0.5]), effects[None])


def test_first_estimate_falls_back_where_the_probes_are_not_monotone():
    # Steering3 of pair (3,4) in case III dips before it turns up just below
    # lambda = 1, so the probes are not monotone; the closed-form guess
    # still finds the crossing.
    with pytest.warns(entswap.NonMonotoneWarning, match="steering3 of pair 34 is not monotone"):
        root = find_threshold("III", None, "34", "steering3", (0.5, 1.0)).root
    assert root == one_point_bisect("III", "34", "steering3", 0.5, 1.0, 1e-9)


def reject_rows(monkeypatch, rows):
    """Make ``measures._signed_rows`` reject ``rows``, an index into its
    rows, keeping its values."""
    real = analysis.measures._signed_rows

    def rejected(states, columns):
        values, ok = real(states, columns)
        ok[rows] = False
        return values, ok

    monkeypatch.setattr(analysis.measures, "_signed_rows", rejected)


def test_rows_the_stacked_checks_reject_go_to_the_scalar_pipeline(monkeypatch):
    # A rejected row is decided by the scalar measure on the engine's own
    # state: no second run of the 16-dimensional pipeline.
    family = analysis._family("II", None)
    lams, pairs, columns = np.array([0.2, 0.5, 0.8]), np.array([0, 1, 2]), np.array([0, 0, 2])
    expected = analysis._signed_values(family, lams, pairs, columns)
    _, _, states, _ = analysis.swap_stack(family.effects(lams), 1)
    reject_rows(monkeypatch, 1)
    monkeypatch.setattr(analysis, "run_swap", lambda p: pytest.fail("run_swap was called"))
    values = analysis._signed_values(family, lams, pairs, columns)
    assert values[1] == analysis._SIGNED["negativity"](states[1, 0, 1])
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case, pair, measure, bracket", [
    ("I", "12", "negativity", (0.5, 1.0)),
    ("III", "34", "steering3", (0.9999, 1.0)),
    ("I", "14", "steering3", (0.2, 0.9)),
])
def test_a_bisection_whose_checks_reject_every_row_keeps_its_root(
    monkeypatch, case, pair, measure, bracket
):
    # Every row goes to the scalar measure on its own state, so the root is
    # bitwise the same and run_swap runs only as the root's oracle.
    root = find_threshold(case, None, pair, measure, bracket).root
    reject_rows(monkeypatch, slice(None))
    result, runs = run_swap_calls(
        monkeypatch, lambda: find_threshold(case, None, pair, measure, bracket)
    )
    assert result.root.hex() == root.hex()
    assert runs == 1


def with_outcome_1_changed(monkeypatch, lam: float, change, degenerate: bool = False):
    """Let ``_grid_swap`` hand on outcome 1's pair states at ``lam`` as
    ``change(states)``, and mark the outcome degenerate if asked."""
    real = analysis._grid_swap

    def changed(family, lams, outcomes=None):
        effects, probabilities, states, kept = real(family, lams, outcomes)
        states, kept = states.copy(), kept.copy()
        for i in np.flatnonzero(lams == lam):
            states[i, 0] = change(states[i, 0])
            kept[i, 0] = not degenerate
        return effects, probabilities, states, kept

    monkeypatch.setattr(analysis, "_grid_swap", changed)


def test_a_row_that_is_no_state_raises_and_is_not_recomputed(monkeypatch):
    # sigma_z x sigma_z keeps the trace, Hermiticity and qubit-1 marginal of
    # the (1,2) state, so the identities pass it, but the state is no longer
    # PSD. Its error is raised, not overruled by a second pipeline's value.
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    bump = np.multiply.outer([0.0, 0.3, 0.0], zz)  # on the (1,2) state only
    with_outcome_1_changed(monkeypatch, 0.75, lambda states: states + bump)
    with pytest.raises(
        entswap.NotAStateError, match=r"^lambda=0\.75: outcome 1, pair 12: negative eigenvalue"
    ):
        find_threshold("I", None, "12", "negativity", (0.5, 1.0))


def test_a_zero_outcome_state_raises_as_no_state(monkeypatch):
    # swap_stack gives a degenerate outcome zero states, which the identities
    # skip and no scalar measure accepts.
    with_outcome_1_changed(monkeypatch, 0.75, np.zeros_like, degenerate=True)
    with pytest.raises(
        entswap.NotAStateError,
        match=r"^lambda=0\.75: outcome 1, pair 12: trace is 0\+0j, expected 1$",
    ):
        find_threshold("I", None, "12", "negativity", (0.5, 1.0))


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(analysis.PRESETS), seed=st.integers(0, 2**32 - 1))
def test_signed_values_equal_the_columns_of_the_full_stack_bit_for_bit(case, seed):
    # Rooting outcome 1 alone and solving one spectrum per row change no bit
    # of a row the checks pass.
    gen = np.random.default_rng(seed)
    lams = np.concatenate([[0.0, 1.0], gen.uniform(0.0, 1.0, 10)])
    pairs, columns = gen.integers(0, 3, lams.size), gen.integers(0, 4, lams.size)
    family = analysis._family(case, None)
    values = analysis._signed_values(family, lams, pairs, columns)
    _, _, states, kept = analysis.swap_stack(family.effects(lams))
    rows = np.arange(lams.size)
    neg, m_value, lambda3, ok = analysis.measures._signed_stack(states[rows, 0, pairs])
    n, s3 = nonlocality_from_pair_sum(m_value), steering3_from_total(lambda3)
    checked = ok & kept[:, 0]
    assert checked.sum() >= lams.size - 1
    expected = np.stack([neg, n, s3, n])[columns, rows]
    assert values[checked].tobytes() == expected[checked].tobytes()


def patch_engine(monkeypatch, f):
    """Let the engine and the scalar pipeline both evaluate f(lambda)."""
    monkeypatch.setattr(
        analysis, "_signed_values", lambda *args: np.array([f(lam) for lam in args[1].tolist()])
    )
    monkeypatch.setattr(analysis, "_signed_pair_value", lambda builder, lam, *_: f(lam))


def test_first_estimate_falls_back_on_a_flat_step(monkeypatch):
    # Every probe below 0.3 gives -1 and every one above 1. The closed-form
    # guess, 1/3, misses the step, so its path leaves the walk and bisect's
    # regula falsi on the flat values goes on.
    f = lambda lam: 1.0 if lam >= 0.3 else -1.0
    patch_engine(monkeypatch, f)
    root = find_threshold("I", None, "14", "negativity", (0.0, 1.0), 1e-12).root
    assert root == scipy.optimize.bisect(f, 0.0, 1.0, xtol=1e-12)


def test_first_estimate_falls_back_on_nan_at_a_probe_off_the_walk(monkeypatch):
    # 0.4375 is a probe, but the steps about the crossing at 0.3 go 0.5,
    # 0.25, 0.375, 0.3125, ..., so the walk never reaches it; the guess,
    # 1/3, is not that crossing.
    f = lambda lam: lam - 0.3
    patch_engine(monkeypatch, lambda lam: float("nan") if lam == 0.4375 else f(lam))
    with pytest.warns(entswap.NonMonotoneWarning):
        root = find_threshold("I", None, "14", "negativity", (0.0, 1.0), 1e-12).root
    assert root == scipy.optimize.bisect(f, 0.0, 1.0, xtol=1e-12)


def test_predicted_root_is_within_tol_of_the_bisected_root():
    for case, pair, measure, (lo, hi), tol in threshold_draws():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", entswap.NonMonotoneWarning)
            root = find_threshold(case, None, pair, measure, (lo, hi), tol).root
        closed_forms = analysis._family(case, None).closed_forms
        guess = analysis._predicted_root(closed_forms, (pair, measure, lo, hi, 0.0))
        assert lo <= guess <= hi and abs(guess - root) <= tol, (case, pair, measure, lo, tol)


def test_no_closed_form_sign_change_predicts_nan_and_still_bisects(monkeypatch):
    # The negativity of pair (1,4) in case I, (3 lam - 1)/2, is positive on
    # [0.5, 1], where the patched engine changes sign at 0.7.
    query = ("14", "negativity", 0.5, 1.0, 0.0)
    assert np.isnan(analysis._predicted_root(analysis._family("I", None).closed_forms, query))
    f = lambda lam: lam - 0.7
    patch_engine(monkeypatch, f)
    root = find_threshold("I", None, "14", "negativity", (0.5, 1.0), 1e-12).root
    assert root == scipy.optimize.bisect(f, 0.5, 1.0, xtol=1e-12)


def stub_forms(at: dict):
    """Closed forms whose signed negativity is lam - 0.3, or at[lam] where given, for every pair."""
    return lambda lam: ((at.get(lam, lam - 0.3), (1.0, 1.0, 1.0)),) * 3


@pytest.mark.parametrize("at", [{1.0: float("inf")}, {0.0: float("nan")}, {0.3: float("nan")}])
def test_predicted_root_is_nan_where_the_closed_form_is_not_finite(at):
    # Regula falsi from the ends 0 and 1 steps to 0.3 first.
    query = ("14", "negativity", 0.0, 1.0, 0.0)
    assert analysis._predicted_root(stub_forms({}), query) == 0.3
    assert np.isnan(analysis._predicted_root(stub_forms(at), query))


def python_output(code: str) -> str:
    """The stripped stdout of ``code`` run by a fresh interpreter on this package;
    a run that takes over 30 s fails, so a call that loops for ever cannot hang
    the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entswap.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=30,
    )
    return done.stdout.strip()


def test_bisect_rejects_a_non_finite_end_before_calling_f():
    # A NaN end once made every midpoint NaN, which no walk finds again as a
    # key, so bisect looped for ever; the subprocess keeps a regression from
    # hanging the suite.
    code = (
        "import entswap\n"
        "from entswap import analysis\n"
        "calls = []\n"
        "def f(x):\n"
        "    calls.append(len(x))\n"
        "    return [v - 0.5 for v in x]\n"
        "for a, b in ((float('nan'), 1.0), (-float('inf'), 1.0), (0.0, float('inf'))):\n"
        "    try:\n"
        "        analysis.bisect(f, a, b, -1.0, 1.0, 1e-9, float('nan'))\n"
        "    except entswap.BadParamError as exc:\n"
        "        print(exc)\n"
        "print(calls)\n"
    )
    assert python_output(code).splitlines() == [
        "bracket ends must be finite, got nan and 1.0",
        "bracket ends must be finite, got -inf and 1.0",
        "bracket ends must be finite, got 0.0 and inf",
        "[]",
    ]


def test_import_does_not_load_scipy():
    code = "import sys, entswap; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert python_output(code) == "[]"


def test_find_threshold_loads_neither_scipy_nor_numpy_polynomial():
    # The root prediction runs in Python floats; numpy.polynomial is
    # imported lazily and would add to every process's first threshold.
    code = (
        "import sys, entswap; "
        "entswap.find_threshold('I', None, '14', 'negativity', (0.2, 0.5)); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('numpy.polynomial')])"
    )
    assert python_output(code) == "[]"

"""Threshold bisection on the batched engine.

``analysis.bisect`` must repeat ``scipy.optimize.bisect`` step for step, so
scipy serves as the oracle here; the package itself never imports it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

import entswap
from entswap import (
    EntswapError,
    case1_closed_forms,
    case2_closed_forms,
    classify_table,
    find_threshold,
)
from entswap import analysis
from entswap.measures import nonlocality_from_pair_sum, steering3_from_total
from helpers import rng

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
    g = lambda x, rows: np.array([f(v) for v in x])
    return analysis.bisect(g, lo, hi, f(lo), f(hi), tol).root[0]


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


def test_vectorized_bisect_equals_one_bracket_runs():
    for tol in TOLS:
        group = [(f, lo, hi) for f, lo, hi, t in BRACKETS if t == tol]
        fs = [f for f, _, _ in group]
        g = lambda x, rows: np.array([fs[r](v) for v, r in zip(x, rows)])
        lo, hi = np.array([b[1] for b in group]), np.array([b[2] for b in group])
        f_lo, f_hi = [f(v) for f, v in zip(fs, lo)], [f(v) for f, v in zip(fs, hi)]
        result = analysis.bisect(g, lo, hi, f_lo, f_hi, tol)
        single = [one_bracket(f, a, b, tol) for f, a, b in group]
        assert len(group) > 20
        assert result.root.tolist() == single
        # Each root is an end of its final bracket, whose ends keep their signs.
        assert np.all((result.root == result.a) | (result.root == result.b))
        assert np.all(result.fa * result.fb <= 0)


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

    def g(x, rows):
        g.calls.append((np.array(x), np.array(rows)))
        return np.array([f(v) for v in x])

    g.calls = []
    return g


@pytest.mark.parametrize("steps", [1, 4, 5, 30, 199, 200, 201])
def test_bisect_calls_f_once_per_four_steps(steps):
    # As in the maxiter test: f(x) = x on [-1, 0.5] converges at step k.
    f, lo, hi = (lambda lam: lam), -1.0, 0.5
    tol = 1.5 * (1.5 * 2.0**-steps)
    g = counted(f)
    if steps <= 200:
        root = analysis.bisect(g, lo, hi, f(lo), f(hi), tol).root[0]
        assert root == scipy.optimize.bisect(f, lo, hi, xtol=tol, maxiter=200)
    else:
        with pytest.raises(EntswapError, match="did not converge in 200 iterations"):
            analysis.bisect(g, lo, hi, f(lo), f(hi), tol)
    assert len(g.calls) == min(-(-steps // 4), 50)
    # Each call takes the midpoints of the next four levels, heap-ordered,
    # down to the first level where |dm| < tol, here level min(4, steps).
    heap = (8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15)[: 2 ** min(4, steps) - 1]
    x, rows = g.calls[0]
    assert rows.tolist() == [0] * len(heap)
    assert x.tolist() == [lo + 1.5 * k / 16 for k in heap]


def test_bisect_ignores_nan_off_the_path():
    # The first step moves b to 0.5, so the walk never reaches 0.75.
    f = lambda lam: lam - 0.3
    nan_at_075 = lambda lam: float("nan") if lam == 0.75 else f(lam)
    g = counted(nan_at_075)
    root = analysis.bisect(g, 0.0, 1.0, f(0.0), f(1.0), 1e-12).root[0]
    assert 0.75 in g.calls[0][0]
    assert root == scipy.optimize.bisect(f, 0.0, 1.0, xtol=1e-12)


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
    real = analysis.measures._signed_stack

    def perturbed(states):
        negativity, *rest = real(states)
        return (negativity + 1e-6, *rest)

    monkeypatch.setattr(analysis.measures, "_signed_stack", perturbed)
    with pytest.raises(
        EntswapError,
        match=r"^lambda=0\.3333\d+: batched engine deviates from the scalar pipeline "
        r"at outcome 1: pair 14 negativity is ",
    ):
        find_threshold("I", None, "14", "negativity", (0.2, 0.5))


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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(entswap.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, entswap; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"

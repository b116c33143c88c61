import numpy as np
import pytest
from scipy.optimize import bisect, minimize_scalar

from entswap import (
    BadParamError,
    EntswapError,
    InvalidPovmError,
    NoBracketError,
    NonMonotoneWarning,
    SweepConfig,
    case2_closed_forms,
    classify_table,
    find_extremum,
    find_threshold,
    s_of_lambda,
    sweep,
    verify,
    werner_bell_povm,
)
from entswap import analysis

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def rows_for(records, **match):
    return [r for r in records if all(getattr(r, k) == v for k, v in match.items())]


def test_sweep_shape_and_order():
    records = sweep(SweepConfig(case="I", count=3))
    assert len(records) == 3 * 4 * 3
    lams = [r.lam for r in records]
    assert lams == sorted(lams)
    # within one lambda block: outcome-major, pair order (14, 12, 34)
    first = records[:3]
    assert [r.pair for r in first] == ["14", "12", "34"]
    assert all(r.outcome == 1 for r in first)


def test_sweep_case1_endpoints():
    records = sweep(SweepConfig(case="I", count=3))
    full = rows_for(records, lam=1.0, pair="14")
    assert all(abs(r.negativity - 1.0) < 1e-10 for r in full)
    for pair in ("12", "34"):
        assert all(r.negativity < 1e-10 for r in rows_for(records, lam=1.0, pair=pair))
    # residual pairs do not depend on the outcome index
    for pair in ("12", "34"):
        block = rows_for(records, lam=0.5, pair=pair)
        assert len({round(r.negativity, 12) for r in block}) == 1


def test_sweep_case4_nonlocality_positive():
    records = sweep(SweepConfig(case="IV", count=11))
    for r in rows_for(records, pair="14"):
        if r.lam > 0:
            assert r.nonlocality > 1e-9


def test_sweep_deterministic():
    cfg = SweepConfig(case="II", count=5)
    assert sweep(cfg) == sweep(cfg)


def test_sweep_analytic_matches_numeric():
    numeric = sweep(SweepConfig(case="III", count=7, pipeline="numeric"))
    analytic = sweep(SweepConfig(case="III", count=7, pipeline="analytic"))
    assert len(numeric) == len(analytic)
    for a, b in zip(numeric, analytic):
        assert (a.case, a.lam, a.outcome, a.pair) == (b.case, b.lam, b.outcome, b.pair)
        assert abs(a.probability - b.probability) < 1e-12
        assert abs(a.negativity - b.negativity) < 1e-9
        assert abs(a.steering3 - b.steering3) < 1e-9
        assert abs(a.nonlocality - b.nonlocality) < 1e-9


def test_sweep_both_pipeline_cross_checks():
    records = sweep(SweepConfig(case="I", count=5, pipeline="both"))
    assert len(records) == 5 * 4 * 3


def test_sweep_custom_builder_and_error_location():
    records = sweep(
        SweepConfig(case="custom", count=3, povm_builder=werner_bell_povm)
    )
    assert len(records) == 3 * 4 * 3

    def broken(lam):
        if lam > 0.5:
            raise BadParamError("boom")
        return werner_bell_povm(lam)

    with pytest.raises(BadParamError, match="lambda=1: boom"):
        sweep(SweepConfig(case="custom", count=3, povm_builder=broken))


def test_sweep_config_validation():
    with pytest.raises(BadParamError):
        SweepConfig(case="V")
    with pytest.raises(BadParamError):
        SweepConfig(case="I", lambda_start=0.8, lambda_stop=0.2)
    with pytest.raises(BadParamError):
        SweepConfig(case="I", count=1)
    with pytest.raises(BadParamError):
        SweepConfig(case="custom", pipeline="analytic", povm_builder=werner_bell_povm)
    with pytest.raises(BadParamError):
        sweep(SweepConfig(case="I", x=0.3))  # case I has no x
    with pytest.raises(BadParamError, match=r"^x must be in \[0, 1\], got nan$"):
        SweepConfig(case="II", x=float("nan"))


@pytest.mark.parametrize("call", [
    lambda: find_threshold("custom", None, "14", "negativity", (0.2, 0.9)),
    lambda: classify_table("custom", grid=np.linspace(0.0, 1.0, 5)),
    lambda: find_extremum("custom", None, "14", "negativity"),
    lambda: sweep(SweepConfig(case="custom")),
], ids=["find_threshold", "classify_table", "find_extremum", "sweep"])
def test_custom_case_needs_a_povm_builder(call):
    with pytest.raises(BadParamError, match=r"^case 'custom' needs a povm_builder$"):
        call()


@pytest.mark.parametrize("case, builder, message", [
    ("custom", 3, r"^povm_builder must be callable, got 3$"),
    ("I", werner_bell_povm, r"^case 'I' takes no povm_builder$"),
    ("II", werner_bell_povm, r"^case 'II' takes no povm_builder$"),
], ids=["not-callable", "case-I", "case-II"])
def test_a_povm_builder_is_a_callable_for_case_custom(case, builder, message):
    # SweepConfig checks its builder when it is built.
    with pytest.raises(BadParamError, match=message):
        SweepConfig(case=case, povm_builder=builder)


@pytest.mark.parametrize("x", ["abc", float("nan"), 0.5])
def test_case_custom_takes_no_x(x):
    # No builder reads x, so any value would only label the records.
    with pytest.raises(BadParamError, match=r"^case custom has no x parameter$"):
        SweepConfig(case="custom", x=x, povm_builder=werner_bell_povm, count=2)


@pytest.mark.parametrize("built, name", [(None, "NoneType"), ([], "list"), (3, "int")])
def test_a_builder_that_returns_no_povm_is_named(built, name):
    cfg = SweepConfig(case="custom", lambda_start=0.25, count=3, povm_builder=lambda lam: built)
    with pytest.raises(InvalidPovmError, match=rf"^lambda=0\.25: builder returned {name}, not a Povm$"):
        sweep(cfg)


@pytest.mark.parametrize("cfg", ["I", None, {"case": "I"}])
def test_sweep_takes_a_sweep_config(cfg):
    with pytest.raises(BadParamError, match=rf"^sweep needs a SweepConfig, got {type(cfg).__name__}$"):
        sweep(cfg)


def test_find_threshold_root_is_bracketed():
    result = find_threshold("I", None, "14", "negativity", (0.0, 1.0), tol=1e-9)
    f = lambda lam: analysis._signed_pair_value(
        analysis._family("I", None).povm, lam, "14", "negativity"
    )
    assert f(result.root - result.achieved_tol) < 0.0 < f(result.root + result.achieved_tol)


def test_find_threshold_case1_pair14():
    assert abs(find_threshold("I", None, "14", "negativity", (0.0, 1.0)).root - 1 / 3) < 1e-6
    assert (
        abs(find_threshold("I", None, "14", "steering3", (0.0, 1.0)).root - 1 / SQRT3) < 1e-6
    )
    assert (
        abs(find_threshold("I", None, "14", "nonlocality", (0.0, 1.0)).root - 1 / SQRT2)
        < 1e-6
    )


def test_find_threshold_case1_residual_pair():
    root = find_threshold("I", None, "12", "negativity", (0.5, 1.0)).root
    assert abs(root - (1 + SQRT3) / 3) < 1e-6
    oracle = bisect(lambda lam: s_of_lambda(lam) - 1 / SQRT3, 0.01, 1.0, xtol=1e-12)
    root = find_threshold("I", None, "12", "steering3", (0.5, 1.0)).root
    assert abs(root - oracle) < 1e-6


def test_find_threshold_requires_bracket():
    with pytest.raises(NoBracketError):
        find_threshold("I", None, "14", "negativity", (0.5, 1.0))


def test_find_threshold_warns_on_non_monotone_bracket():
    # the (3,4) steering quantifier dips and then rises steeply close to
    # lam = 1, crossing zero at lam ~ 0.9999579 (it reaches ~1.47e-3 at 1.0)
    with pytest.warns(NonMonotoneWarning):
        result = find_threshold("III", None, "34", "steering3", (0.5, 1.0), tol=1e-9)
    assert abs(result.root - 0.9999579) < 1e-6


def test_find_threshold_input_validation():
    with pytest.raises(BadParamError):
        find_threshold("I", None, "13", "negativity", (0.0, 1.0))
    with pytest.raises(BadParamError):
        find_threshold("I", None, "14", "purity", (0.0, 1.0))
    with pytest.raises(BadParamError):
        find_threshold("I", None, "14", "negativity", (0.9, 0.2))


def test_classify_case1_reproduces_interval_table():
    table = classify_table("I", grid=np.linspace(0, 1, 21))
    expected_roots = {
        ("14", "negativity"): 1 / 3,
        ("14", "steering3"): 1 / SQRT3,
        ("14", "nonlocality"): 1 / SQRT2,
        ("12", "negativity"): (1 + SQRT3) / 3,
        ("12", "steering3"): bisect(lambda l: s_of_lambda(l) - 1 / SQRT3, 0.01, 1, xtol=1e-12),
        ("12", "nonlocality"): bisect(lambda l: s_of_lambda(l) - 1 / SQRT2, 0.01, 1, xtol=1e-12),
    }
    for (pair, measure), root in expected_roots.items():
        rng = table[(pair, measure)]
        assert rng.kind == ("above" if pair == "14" else "below")
        assert abs(rng.threshold - root) < 1e-6
    for measure in ("negativity", "steering3", "nonlocality"):
        assert table[("34", measure)].kind == table[("12", measure)].kind
        assert abs(table[("34", measure)].threshold - table[("12", measure)].threshold) < 1e-9


def test_classify_case2_pattern():
    table = classify_table("II", grid=np.linspace(0, 1, 21))
    assert table[("14", "negativity")].kind == "all"
    assert table[("14", "steering3")].kind == "never"
    assert table[("14", "nonlocality")].kind == "never"
    for pair in ("12", "34"):
        for measure in ("negativity", "steering3", "nonlocality"):
            assert table[(pair, measure)].kind == "all"


def test_classify_case3_pattern():
    table = classify_table("III")
    assert table[("14", "negativity")].kind == "all"
    assert table[("14", "steering3")].kind == "all"
    assert table[("14", "nonlocality")].kind == "never"
    assert table[("12", "steering3")].kind == "all"
    assert table[("12", "nonlocality")].kind == "never"
    assert table[("34", "negativity")].kind == "all"
    assert table[("34", "nonlocality")].kind == "never"
    # the (3,4) three-setting steering quantifier is genuinely positive on a
    # narrow sliver ending at lam = 1, so the classifier reports an interval
    sliver = table[("34", "steering3")]
    assert sliver.kind == "above"
    assert abs(sliver.threshold - 0.9999579) < 1e-6


def test_classify_case4_pattern():
    table = classify_table("IV", grid=np.linspace(0, 1, 21))
    for measure in ("negativity", "steering2", "steering3", "nonlocality"):
        assert table[("14", measure)].kind == "all"
    for pair in ("12", "34"):
        assert table[(pair, "negativity")].kind == "all"
        assert table[(pair, "steering3")].kind == "never"
        assert table[(pair, "nonlocality")].kind == "never"


def test_measure_range_descriptions():
    from entswap import MeasureRange

    assert MeasureRange("never").describe() == "never"
    assert MeasureRange("all").describe() == "0 < lam <= 1"
    assert "0.333333 < lam" in MeasureRange("above", 1 / 3).describe()
    assert "lam < 0.910684" in MeasureRange("below", (1 + SQRT3) / 3).describe()


def test_find_extremum_interior_peak():
    lam_star, value = find_extremum("II", None, "14", "negativity")
    assert abs(lam_star - 0.3472444899) < 1e-5
    assert abs(value - 0.1400756167) < 1e-9


def test_find_extremum_boundary_peaks():
    lam_star, value = find_extremum("I", None, "14", "negativity", np.linspace(0, 1, 11))
    assert lam_star == 1.0 and abs(value - 1.0) < 1e-12
    assert type(lam_star) is float and type(value) is float
    lam_star, value = find_extremum("I", None, "12", "negativity", np.linspace(0, 1, 11))
    assert lam_star == 0.0 and abs(value - 1.0) < 1e-12
    # Exact zero eigenvalues of the effects at x = 0 give no root noise.
    lam_star, value = find_extremum("II", 0.0, "12", "negativity")
    assert lam_star == 1.0 and abs(value - 0.25) <= 1e-15


# Interior peaks of (case, pair, measure), each with a lambda within 0.01 of it.
INTERIOR_PEAKS = [
    ("II", "14", "negativity", 0.347),
    ("III", "14", "steering3", 0.995),
    ("III", "12", "negativity", 0.936),
    ("III", "12", "steering3", 0.735),
    ("IV", "14", "nonlocality", 0.948),
    ("IV", "12", "negativity", 0.818),
]


@pytest.mark.parametrize("case, pair, measure, near", INTERIOR_PEAKS)
def test_find_extremum_matches_closed_form_argmax(case, pair, measure, near):
    x = analysis.CASE_PRESETS[case]

    def closed_form(lam):
        return case2_closed_forms(x, lam).report(pair).values()[measure]

    best = minimize_scalar(
        lambda lam: -closed_form(lam), bounds=(near - 0.01, min(near + 0.01, 1.0)),
        method="bounded", options={"xatol": 1e-12},
    )
    lam_star, value = find_extremum(case, None, pair, measure)
    assert type(lam_star) is float and type(value) is float
    distance = abs(lam_star - best.x)
    assert distance <= 1e-6, f"lambda* {lam_star!r} is {distance:.2e} from {best.x!r}"
    assert abs(value - closed_form(best.x)) <= analysis.VERIFY_TOL


def test_find_extremum_runs_one_scalar_check_per_scan(monkeypatch):
    scans, scalar_runs = [], []
    grid_values, run_swap = analysis._grid_values, analysis.run_swap

    def counted_grid_values(family, lams, tol, outcomes=None):
        scans.append(lams.size)
        return grid_values(family, lams, tol, outcomes)

    def counted_run_swap(p):
        scalar_runs.append(p)
        return run_swap(p)

    monkeypatch.setattr(analysis, "_grid_values", counted_grid_values)
    monkeypatch.setattr(analysis, "run_swap", counted_run_swap)
    find_extremum("II", None, "14", "negativity")
    # The 101-point grid, then scans whose neighbours close in 16-fold each
    # time, from 0.02 apart to within 1e-6.
    assert scans == [101] + [analysis._REFINE_POINTS] * 4
    assert len(scalar_runs) == len(scans) < 25


def test_find_extremum_checks_the_last_point_of_each_refinement_scan(monkeypatch):
    report_values, calls = analysis._report_values, []

    def perturbed(states, kept, tol, where):
        values = report_values(states, kept, tol, where)
        calls.append(len(states))
        if len(calls) == 3:  # the second refinement scan
            values[-1, 0, 0] += 1e-6
        return values

    monkeypatch.setattr(analysis, "_report_values", perturbed)
    with pytest.raises(EntswapError, match="batched engine deviates from the scalar pipeline"):
        find_extremum("II", None, "14", "negativity")
    assert calls == [101, analysis._REFINE_POINTS, analysis._REFINE_POINTS]


def test_verify_passes_all_cases_small_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for case in ("I", "II", "III", "IV"):
        rep = verify(case, grid=grid)
        assert rep.passed, (case, rep.max_deviation)
        assert rep.max_deviation < 1e-9


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_the_ends_of_the_asymmetric_family_are_exact(x):
    # An effect at x = 0 or 1 has exact zero eigenvalues, which eigh gives as
    # noise of order 1e-17; the root of that noise would move the (1,2) and
    # (3,4) states by about 1e-8.
    for case in ("II", "III", "IV"):
        rep = verify(case, x=x)
        assert rep.passed and rep.max_deviation < 1e-13, (case, rep.max_deviation)
    sweep(SweepConfig(case="II", x=x, pipeline="both"))


def test_verify_locates_injected_fault(monkeypatch):
    real = analysis._closed_form_core

    def corrupted(x, lam):
        (negativity, t), *others = real(x, lam)
        return ((negativity + 1e-6, t), *others) if x is None else real(x, lam)

    monkeypatch.setattr(analysis, "_closed_form_core", corrupted)
    rep = verify("I", grid=np.linspace(0.0, 1.0, 5))
    assert not rep.passed
    assert rep.worst_pair == "14"
    assert rep.worst_quantity == "negativity"
    assert abs(rep.max_deviation - 1e-6) < 1e-8


def test_verify_rejects_custom_case():
    with pytest.raises(BadParamError):
        verify("custom")


def test_grid_numpy_cannot_hold_is_rejected_at_once():
    # 10**20 points fail before anything is allocated; never test a count that allocates.
    with pytest.raises(BadParamError, match=rf"^grid of {10**20} points is beyond numpy's largest"):
        sweep(SweepConfig(case="I", count=10**20))


def test_find_extremum_rejects_short_grid():
    with pytest.raises(BadParamError, match="grid needs at least 2 points, got 0"):
        find_extremum("II", None, "14", "negativity", grid=np.array([]))


def test_classify_rejects_a_pattern_the_physics_splits():
    # At x = 0.885 the (3,4) entanglement vanishes on [0.66, 0.90] and comes back.
    message = r"^negativity of pair 34 is positive on 75 grid points that do not form a single"
    with pytest.raises(EntswapError, match=message + r" interval$"):
        classify_table("II", 0.885)
    # The closed forms agree: no negativity beyond 1e-9 exactly there.
    grid = np.linspace(0.0, 1.0, 101)[1:]
    negativity = np.array([case2_closed_forms(0.885, lam).quantities("34")[0] for lam in grid])
    vanished = (grid >= 0.66 - 1e-12) & (grid <= 0.9 + 1e-12)
    assert ((negativity <= 1e-9) == vanished).all()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"grid": [0.0, 0.0]}, "needs a grid point with lambda > 0"),
        ({"tol": 0.0}, "tolerance must be positive"),
        ({"x": 0.3}, "case I has no x parameter"),
        ({"grid": [-0.5, 0.5, 0.9]}, r"sharpness must be in \[0, 1\], got -0.5"),
        ({"grid": [0.2, float("nan"), 0.9]}, r"sharpness must be in \[0, 1\], got nan"),
    ],
)
def test_classify_rejects_bad_input(kwargs, message):
    with pytest.raises(BadParamError, match=message):
        classify_table("I", **kwargs)


def test_verify_checks_the_batched_quantities(monkeypatch):
    real = analysis.measures.report_stack

    def perturbed(states, tol):
        values, ok = real(states, tol)
        # Stack row 2 * 4 + 1 is lambda = 0.5, outcome 2, an interior point
        # that the last-point scalar cross-check does not see.
        values[2 * 4 + 1, 2, 4] += 1e-6  # pair 34, M
        return values, ok

    monkeypatch.setattr(analysis.measures, "report_stack", perturbed)
    rep = verify("II", grid=np.linspace(0.0, 1.0, 5))
    assert not rep.passed
    assert (rep.worst_lam, rep.worst_outcome, rep.worst_pair, rep.worst_quantity) == (
        0.5, 2, "34", "M"
    )
    assert abs(rep.max_deviation - 1e-6) < 1e-12
    with pytest.raises(
        EntswapError, match=r"^lambda=0\.5: closed form deviates by 1\.000e-06 \(outcome 2, pair 34, M\)"
    ):
        sweep(SweepConfig(case="II", count=5, pipeline="both"))


def test_verify_and_sweep_fail_a_nan_deviation(monkeypatch):
    real = analysis.measures.report_stack

    def poisoned(states, tol):
        values, ok = real(states, tol)
        values[2 * 4 + 1, 2, 4] = np.nan  # lambda = 0.5, outcome 2, pair 34, M
        return values, ok

    monkeypatch.setattr(analysis.measures, "report_stack", poisoned)
    assert not verify("II", grid=np.linspace(0.0, 1.0, 5)).passed
    with pytest.raises(
        EntswapError, match=r"^lambda=0\.5: closed form deviates by nan \(outcome 2, pair 34, M\)"
    ):
        sweep(SweepConfig(case="II", count=5, pipeline="both"))


def test_verify_checks_the_batched_probabilities(monkeypatch):
    real = analysis.swap_stack

    def perturbed(effects, outcomes=None):
        ok, probabilities, states, kept = real(effects, outcomes)
        probabilities[1, 3] += 1e-6  # lambda = 0.25, outcome 4
        return ok, probabilities, states, kept

    monkeypatch.setattr(analysis, "swap_stack", perturbed)
    rep = verify("I", grid=np.linspace(0.0, 1.0, 5))
    assert not rep.passed
    assert (rep.worst_lam, rep.worst_outcome, rep.worst_pair, rep.worst_quantity) == (
        0.25, 4, "", "probability"
    )


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerances_are_rejected(tol):
    calls = [
        lambda: SweepConfig(case="I", tol=tol),
        lambda: classify_table("I", tol=tol),
        lambda: classify_table("I", root_tol=tol),
        lambda: find_threshold("I", None, "14", "negativity", (0.0, 1.0), tol=tol),
    ]
    for call in calls:
        with pytest.raises(BadParamError, match="tolerance must be positive and finite"):
            call()


_ORDERS = {
    "reversed": lambda grid: grid[::-1],
    "shuffled": lambda grid: np.random.default_rng(5).permutation(grid),
}


@pytest.mark.parametrize("order", _ORDERS)
def test_a_grid_in_any_order_gives_the_sorted_grids_answers(order):
    grid = np.linspace(0.0, 1.0, 21)
    given = _ORDERS[order](grid)
    assert not np.array_equal(given, grid)
    assert classify_table("I", grid=given) == classify_table("I", grid=grid)
    assert classify_table("III", grid=given) == classify_table("III", grid=grid)
    extremum = find_extremum("II", None, "14", "negativity", grid=given)
    assert extremum == find_extremum("II", None, "14", "negativity", grid=grid)
    assert verify("II", grid=given) == verify("II", grid=grid)


def test_find_extremum_on_an_unsorted_grid_refines_between_true_neighbours():
    lam, value = find_extremum("II", None, "14", "negativity", grid=[0.9, 0.1, 0.5, 0.3])
    assert (lam, value) == find_extremum("II", None, "14", "negativity", grid=[0.1, 0.3, 0.5, 0.9])
    assert abs(lam - 0.347244) < 1e-6 and abs(value - 0.140076) < 1e-6

"""The batched sweep engine against the scalar 16-dimensional pipeline."""

import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    EntswapError,
    InvalidPovmError,
    NotAStateError,
    Povm,
    SweepConfig,
    SweepRecord,
    report,
    run_swap,
    sweep,
    werner_bell_povm,
)
from entswap import analysis
from entswap.povm import validate
from entswap.swap import PAIRS, swap_stack
from helpers import random_povm, rng

I4 = np.eye(4, dtype=complex)


def shrinking_family(seed: int, outcomes: int):
    """lam * R_i for all but the last effect of a random POVM R, the rest of
    the identity for the last; every outcome but the last is degenerate at
    lam = 0."""
    base = random_povm(rng(seed), outcomes=outcomes).effects

    def builder(lam):
        head = tuple(lam * e for e in base[:-1])
        return Povm(head + (I4 - sum(head),), label="shrinking")

    return builder


def scalar_rows(cfg: SweepConfig):
    """The sweep rows from run_swap and report, grid point by grid point."""
    builder = analysis._family(cfg.case, cfg.x, cfg.povm_builder).povm
    rows = []
    for lam in cfg.grid().tolist():
        for outcome in run_swap(builder(lam)):
            if outcome.degenerate:
                continue
            for pair in PAIRS:
                values = report(outcome.pair_state(pair), cfg.tol).values()
                rows.append(
                    ((lam, outcome.outcome_index, pair), [outcome.probability, *values.values()])
                )
    return rows


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(["I", "II", "III", "IV", "custom"]),
    x=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    count=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
    outcomes=st.integers(min_value=2, max_value=6),
)
def test_batched_rows_match_scalar_pipeline(case, x, ends, count, seed, outcomes):
    cfg = SweepConfig(
        case=case,
        x=None if case in ("I", "custom") else x,
        lambda_start=ends[0],
        lambda_stop=ends[1],
        count=count,
        povm_builder=shrinking_family(seed, outcomes) if case == "custom" else None,
    )
    try:
        expected = scalar_rows(cfg)
    except EntswapError as exc:
        with pytest.raises(type(exc)):
            sweep(cfg)
        return
    records = sweep(cfg)
    assert [(r.lam, r.outcome, r.pair) for r in records] == [key for key, _ in expected]
    for record, (_, values) in zip(records, expected):
        batched = [
            record.probability, record.negativity, record.steering2, record.steering3,
            record.nonlocality, record.M, record.Lambda3,
        ]
        for got, want in zip(batched, values):
            assert abs(got - want) <= 1e-12, (record, values)
            assert not (got == 0.0 and math.copysign(1.0, got) < 0.0), record


def failing_at(bad: float, fault):
    """A custom builder that gives the Bell-projector POVM, except at ``bad``,
    where it returns or raises what ``fault(lam)`` gives."""
    def builder(lam):
        return fault(lam) if lam == bad else werner_bell_povm(lam)
    return builder


def incomplete(lam):
    return Povm(tuple(1.1 * e for e in werner_bell_povm(lam).effects))


def test_a_custom_povm_that_fails_validate_carries_its_problems():
    cfg = SweepConfig(case="custom", count=3, povm_builder=failing_at(0.5, incomplete))
    problems = validate(incomplete(0.5))
    assert problems
    with pytest.raises(InvalidPovmError) as raised:
        sweep(cfg)
    assert raised.value.problems == problems
    assert str(raised.value) == "lambda=0.5: " + "; ".join(problems)


class NoPovmHere(EntswapError):
    """A builder's own error, whose initializer takes two arguments."""

    def __init__(self, lam, reason):
        super().__init__(f"{reason} at {lam}")
        self.lam = lam


def test_a_builder_error_reaches_the_caller_as_itself():
    def fault(lam):
        raise NoPovmHere(lam, "no POVM")

    with pytest.raises(NoPovmHere) as raised:
        sweep(SweepConfig(case="custom", count=3, povm_builder=failing_at(0.5, fault)))
    assert type(raised.value) is NoPovmHere and raised.value.lam == 0.5
    assert str(raised.value) == "lambda=0.5: no POVM at 0.5"


def test_perturbed_batched_state_fails_the_scalar_cross_check(monkeypatch):
    real = analysis.swap_stack

    def perturbed(effects, outcomes=None):
        ok, probabilities, states, kept = real(effects, outcomes)
        states[-1] = (1 - 1e-6) * states[-1] + 1e-6 * I4 / 4  # still valid states
        return ok, probabilities, states, kept

    monkeypatch.setattr(analysis, "swap_stack", perturbed)
    with pytest.raises(EntswapError, match=r"lambda=1: .*outcome 1: pair 14 negativity"):
        sweep(SweepConfig(case="II", count=4))


def effect_eigensolves(monkeypatch, call) -> list[tuple[str, tuple]]:
    """The numpy eigensolvers ``call()`` runs on POVM effects, the solves
    ``povm._residuals`` makes, each with the shape it solves."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "entswap.povm":
                calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return calls


@pytest.mark.parametrize("case", ["I", "III"])
@pytest.mark.parametrize("engine, rooted", [("grid", 4), ("grid_outcome1", 1), ("signed", 1)])
def test_each_effect_of_an_engine_call_is_solved_once(monkeypatch, case, engine, rooted):
    # The spectrum that flags the effects gives the square roots of the
    # outcomes swapped: eigh on those, eigvalsh on the rest, no effect twice.
    family = analysis._family(case, None)
    lams = np.linspace(0.1, 0.9, 7)
    calls = {
        "grid": lambda: analysis._grid_values(family, lams, 1e-9),
        "grid_outcome1": lambda: analysis._grid_values(family, lams, 1e-9, outcomes=1),
        "signed": lambda: analysis._signed_values(family, lams, np.arange(7) % 3, np.arange(7) % 4),
    }
    expected = [("eigh", (7, rooted, 4, 4))]
    if rooted < 4:
        expected.append(("eigvalsh", (7, 4 - rooted, 4, 4)))
    if engine != "signed":  # the scalar check of the last grid point validates its POVM
        expected.append(("eigvalsh", (4, 4, 4)))
    assert effect_eigensolves(monkeypatch, calls[engine]) == expected


def test_validate_solves_for_eigenvalues_alone(monkeypatch):
    for p in (werner_bell_povm(0.5), random_povm(rng(7)), random_povm(rng(8), outcomes=3)):
        solves = effect_eigensolves(monkeypatch, lambda: validate(p))
        assert solves == [("eigvalsh", (len(p), 4, 4))]


def assert_outcome_1_alone_equals_the_full_swap(effects) -> None:
    """``swap_stack(effects, 1)``, which roots outcome 1 alone, gives the
    first outcome of ``swap_stack(effects)`` bit for bit."""
    ok, probabilities, states, kept = swap_stack(effects)
    ok1, probabilities1, states1, kept1 = swap_stack(effects, 1)
    assert np.array_equal(ok1, ok)
    assert np.array_equal(kept1, kept[..., :1])
    assert np.array_equal(probabilities1, probabilities[..., :1])
    assert np.array_equal(states1, states[..., :1, :, :, :])
    assert states1.tobytes() == np.ascontiguousarray(states[..., :1, :, :, :]).tobytes()


# Both ends of the lambda range, and points near them.
EDGE_LAMS = np.array([0.0, 1e-12, 1e-6, 0.5, 1.0 - 1e-12, 1.0])


@pytest.mark.parametrize("case, x", [
    ("I", None), ("II", None), ("III", None), ("IV", None), ("II", 0.0), ("II", 1.0),
])
def test_rooting_outcome_1_alone_keeps_its_swap_bit_for_bit(case, x):
    lams = np.concatenate([np.linspace(0.0, 1.0, 41), EDGE_LAMS])
    assert_outcome_1_alone_equals_the_full_swap(analysis._family(case, x).effects(lams))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outcomes=st.integers(1, 5))
def test_rooting_outcome_1_alone_keeps_random_povms_bit_for_bit(seed, outcomes):
    gen = np.random.default_rng(seed)
    lists = [random_povm(gen, outcomes=outcomes).effects for _ in range(6)]
    # A list validate rejects, and one whose outcomes but the last are degenerate.
    lists += [tuple(1.01 * e for e in lists[0]), shrinking_family(seed % 100, outcomes)(0.0).effects]
    assert_outcome_1_alone_equals_the_full_swap(np.array(lists))


def test_custom_builder_changing_effect_count_is_rejected():
    def builder(lam):
        if lam > 0.5:
            return Povm((I4 / 2, I4 / 2), label="two")
        return werner_bell_povm(lam)

    with pytest.raises(
        InvalidPovmError, match=r"lambda=0\.75: builder returned 2 effects here but 4 at lambda=0"
    ):
        sweep(SweepConfig(case="custom", count=5, povm_builder=builder))


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda e: 1.001 * e, "completeness"),
        (lambda e: e + np.diag([np.nan, 0, 0, 0]), "effect 1: non-finite entry"),
    ],
)
def test_invalid_custom_povm_names_first_bad_lambda(broken, message):
    def builder(lam):
        effects = werner_bell_povm(lam).effects
        return Povm(tuple(broken(e) for e in effects) if lam >= 0.5 else effects)

    with pytest.raises(InvalidPovmError, match=rf"^lambda=0\.5: {message}"):
        sweep(SweepConfig(case="custom", count=5, povm_builder=builder))


def test_states_failing_the_stacked_checks_go_to_scalar_report(monkeypatch):
    cfg = SweepConfig(case="III", count=3)
    expected = sweep(cfg)
    real_report_stack = analysis.measures.report_stack

    def nothing_ok(states, tol):
        values, ok = real_report_stack(states, tol)
        return values, np.zeros_like(ok)

    # report() accepts every state, so its values stand in for the batch.
    monkeypatch.setattr(analysis.measures, "report_stack", nothing_ok)
    for got, want in zip(sweep(cfg), expected, strict=True):
        assert (got.lam, got.outcome, got.pair) == (want.lam, want.outcome, want.pair)
        assert abs(got.M - want.M) < 1e-12 and abs(got.negativity - want.negativity) < 1e-12

    real_swap_stack = analysis.swap_stack

    def skewed(effects, outcomes=None):
        ok, probabilities, states, kept = real_swap_stack(effects, outcomes)
        states[1, 1, 1, 0, 1] += 1e-6  # no longer Hermitian
        return ok, probabilities, states, kept

    monkeypatch.setattr(analysis, "swap_stack", skewed)
    with pytest.raises(NotAStateError, match=r"^lambda=0\.5: outcome 2, pair 12: not Hermitian"):
        sweep(cfg)


@pytest.mark.parametrize("cfg", [
    *(SweepConfig(case=case, count=4) for case in ("I", "II", "III", "IV")),
    SweepConfig(case="custom", count=4, povm_builder=shrinking_family(11, 4)),
], ids=["I", "II", "III", "IV", "custom"])
def test_bulk_built_records_behave_as_initialized_ones(cfg):
    records = sweep(cfg)
    if cfg.case == "custom":
        # Three outcomes are degenerate at lambda = 0 and leave no rows.
        assert len(records) == (4 * (cfg.count - 1) + 1) * len(PAIRS)
    for record in records:
        fields = dataclasses.astuple(record)
        twin = SweepRecord(*fields)
        assert [type(v) for v in fields] == [type(v) for v in dataclasses.astuple(twin)]
        assert type(record.outcome) is int and type(record.lam) is float
        assert record == twin and twin == record
        assert hash(record) == hash(twin)
        assert repr(record) == repr(twin)
        assert dataclasses.astuple(twin) == fields
        thawed = pickle.loads(pickle.dumps(record))
        assert type(thawed) is SweepRecord
        assert thawed == record and hash(thawed) == hash(record) and repr(thawed) == repr(record)
        for field in dataclasses.fields(SweepRecord):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))
        assert dataclasses.astuple(record) == fields

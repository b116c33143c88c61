"""The batched sweep engine against the scalar 16-dimensional pipeline."""

import dataclasses
import math
import pickle

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
from entswap.swap import PAIRS
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


def test_perturbed_batched_state_fails_the_scalar_cross_check(monkeypatch):
    real = analysis.swap_stack

    def perturbed(effects):
        probabilities, states = real(effects)
        states[-1] = (1 - 1e-6) * states[-1] + 1e-6 * I4 / 4  # still valid states
        return probabilities, states

    monkeypatch.setattr(analysis, "swap_stack", perturbed)
    with pytest.raises(EntswapError, match=r"lambda=1: .*outcome 1: pair 14 negativity"):
        sweep(SweepConfig(case="II", count=4))


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

    def skewed(effects):
        probabilities, states = real_swap_stack(effects)
        states[1, 1, 1, 0, 1] += 1e-6  # no longer Hermitian
        return probabilities, states

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

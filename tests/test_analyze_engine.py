"""``entswap analyze`` on the stacked quantifier kernel against the scalar
pipeline, ``run_swap`` plus one ``report`` per pair state."""

import csv
import dataclasses
import json
import os
import re
import tempfile
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entswap import (
    DensityMatrix,
    EntswapError,
    NotAStateError,
    Povm,
    SwapOutcome,
    asymmetric_povm,
    cli,
    povm,
    povm_to_dict,
    run_swap,
    swap,
)
from entswap import analysis
from helpers import analyze_per_pair, random_povm, rng

I4 = np.eye(4, dtype=complex)


def analyze(p: Povm, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``analyze`` on a POVM, with every
    float written at full precision."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "povm.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(povm_to_dict(p), fh)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.object(cli, "_fmt", lambda v: repr(float(v))):
            code = cli.main(["analyze", "--povm", path, *argv])
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> list[tuple]:
    """The rows of ``analyze --format csv`` as analyze_per_pair gives them,
    without its degenerate outcomes."""
    rows = {}
    for r in csv.DictReader(StringIO(text)):
        values = [float(r[name]) for name in analysis.measures.QUANTITIES]
        flags = [r[name] == "true" for name in ("entangled", "steerable", "nonlocal")]
        index = int(r["outcome"])
        rows.setdefault(index, (index, float(r["probability"]), []))[2].append(
            (r["pair"], values, flags)
        )
    return list(rows.values())


_PAIR_LINE = re.compile(r"  pair \((\d),(\d)\): negativity=(\S+) S3=(\S+) N=(\S+) \[(.*)\]")
_OUTCOME_LINE = re.compile(r"outcome (\d+): probability (\S+)")


def parse_text(text: str) -> list[tuple]:
    """The lines of ``analyze --format text`` as analyze_per_pair gives
    them, with only negativity, steering3 and nonlocality among the values."""
    rows = []
    for line in text.splitlines()[1:]:
        if m := _OUTCOME_LINE.fullmatch(line):
            rows.append((int(m[1]), float(m[2]), None))
        elif line == "  degenerate outcome, no conditional states":
            assert rows[-1][2] is None
        else:
            m = _PAIR_LINE.fullmatch(line)
            if rows[-1][2] is None:
                rows[-1] = (*rows[-1][:2], [])
            flags = m[6].split(", ")
            rows[-1][2].append((
                m[1] + m[2],
                [float(m[3]), float(m[4]), float(m[5])],
                [name in flags for name in ("entangled", "steerable", "nonlocal")],
            ))
    return rows


def with_degenerate(seed: int, effects: int, split: int | None) -> Povm:
    """A random POVM, with a near-zero share of effect ``split`` split off as
    a degenerate effect after it."""
    base = list(random_povm(rng(seed), outcomes=effects).effects)
    if split is not None:
        k = split % effects
        tiny = 1e-14 / float(np.trace(base[k]).real)
        base.insert(k + 1, tiny * base[k])
        base[k] = (1.0 - tiny) * base[k]
    return Povm(tuple(base), label=f"random {seed}")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    effects=st.integers(min_value=1, max_value=6),
    split=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    fmt=st.sampled_from(["csv", "text"]),
    tol=st.sampled_from([1e-9, 1e-3, 0.03, 0.1]),
)
def test_analyze_rows_match_run_swap_and_report(seed, effects, split, fmt, tol):
    p = with_degenerate(seed, effects, split)
    code, out, err = analyze(p, "--format", fmt, "--tol", repr(tol))
    try:
        expected = analyze_per_pair(p, tol)
    except EntswapError as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    assert (code, err) == (0, "")
    if fmt == "csv":
        got = parse_csv(out)
        expected = [row for row in expected if row[2] is not None]
    else:
        got = parse_text(out)
        # The text shows negativity, steering3 and nonlocality.
        expected = [
            (i, prob, pairs and [(pair, [v[0], v[2], v[3]], flags) for pair, v, flags in pairs])
            for i, prob, pairs in expected
        ]
    assert len(got) == len(expected)
    for (i, prob, pairs), (want_i, want_prob, want_pairs) in zip(got, expected):
        assert (i, prob) == (want_i, want_prob)
        assert (pairs is None) == (want_pairs is None)
        for (pair, values, flags), (want_pair, want_values, want_flags) in zip(
            pairs or [], want_pairs or [], strict=True
        ):
            assert (pair, flags) == (want_pair, want_flags)
            assert np.allclose(values, want_values, rtol=0.0, atol=1e-12), (pair, values)


def test_states_failing_the_stacked_checks_go_to_scalar_report():
    p = asymmetric_povm(0.8, 0.5)
    real_report_stack = analysis.measures.report_stack

    def nothing_ok(states, tol):
        values, ok = real_report_stack(states, tol)
        return values, np.zeros_like(ok)

    # report() accepts every state, so its values stand in for the batch.
    with mock.patch.object(analysis.measures, "report_stack", nothing_ok):
        code, out, _ = analyze(p, "--format", "csv")
    assert code == 0
    expected = analyze_per_pair(p, 1e-9)
    assert parse_csv(out) == expected

    outcomes = run_swap(p)
    skewed = outcomes[1].rho12.matrix.copy()
    skewed[1, 0] += 1e-6  # no longer Hermitian
    outcomes[1] = SwapOutcome(
        2, outcomes[1].probability, outcomes[1].rho14, DensityMatrix._checked(2, skewed),
        outcomes[1].rho34,
    )
    with pytest.raises(NotAStateError, match=r"^not Hermitian"):
        analysis._outcome_values(p, outcomes, 1e-9)


def mixed_into_noise(state: DensityMatrix) -> DensityMatrix:
    """A valid state 1e-6 of the way from ``state`` to white noise."""
    return DensityMatrix(2, (1 - 1e-6) * state.matrix + 1e-6 * I4 / 4)


@pytest.mark.parametrize("pair, identity", [
    ("14", r"\(1,4\) state deviates from conj\(E\)/tr\(E\)"),
    ("12", r"qubit-1 marginal of \(1,2\) deviates from that of \(1,4\)"),
])
def test_analyze_checks_the_outcomes_against_the_effects(pair, identity):
    # Case III at lambda 0.9: its pair states have marginals other than I/2,
    # so the noise moves the (1,2) marginal, yet each state stays valid and
    # keeps report's hierarchy.
    p = asymmetric_povm(0.725, 0.9)
    outcomes = run_swap(p)
    analysis._outcome_values(p, outcomes, 1e-9)
    outcomes[2] = dataclasses.replace(
        outcomes[2], **{f"rho{pair}": mixed_into_noise(outcomes[2].pair_state(pair))}
    )
    pattern = rf"^outcome 3: {identity} by \d\.\d{{3}}e-0[78]$"
    with pytest.raises(EntswapError, match=pattern):
        analysis._outcome_values(p, outcomes, 1e-9)
    with mock.patch.object(cli, "run_swap", lambda _: outcomes):
        code, out, err = analyze(p)
    assert (code, out) == (1, "")
    assert re.fullmatch(f"error: {pattern[1:-1]}\n", err)


@pytest.mark.parametrize("negative, trace", [(5e-11, 0.01), (1e-16, 1e-10)])
def test_analyze_passes_a_small_effect_with_an_eigenvalue_just_below_zero(negative, trace):
    # validate allows the eigenvalue -negative, which the swap's root clamps to
    # 0: the unweighted (1,4) identity would read negative / trace, over 1e-9.
    effect = np.diag([trace, -negative, 0.0, 0.0]).astype(complex)
    p = Povm((effect, I4 - effect))
    assert povm.validate(p) == []
    code, out, err = analyze(p)
    assert (code, err) == (0, "") and out


def test_perturbed_stacked_values_fail_the_scalar_check():
    real_report_stack = analysis.measures.report_stack

    def perturbed(states, tol):
        values, ok = real_report_stack(states, tol)
        return values + 1e-6, ok

    with mock.patch.object(analysis.measures, "report_stack", perturbed):
        code, out, err = analyze(asymmetric_povm(0.725, 0.9))
    assert code == 1 and out == ""
    assert re.fullmatch(
        r"error: batched engine deviates from the scalar pipeline at outcome 1: "
        r"pair 14 negativity is \S+, scalar \S+\n",
        err,
    )


def test_analyze_validates_each_povm_once():
    real_validate = povm.validate
    calls = []

    def counted(p):
        calls.append(p)
        return real_validate(p)

    # Every module that holds validate looks it up in its own globals.
    with ExitStack() as patches:
        for module in (povm, swap, analysis, cli):
            if vars(module).get("validate") is real_validate:
                patches.enter_context(mock.patch.object(module, "validate", counted))
        code, _, _ = analyze(asymmetric_povm(0.8, 0.5))
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize(
    "effects, message",
    [
        ((I4, I4), "  completeness: effects sum deviates from identity by 1.000e+00\n"),
        (
            (I4 + np.diag([0.0, 0.0, 0.0, 1.0]), np.diag([0.0, 0.0, 0.0, -1.0])),
            "  effect 1: eigenvalue 2 exceeds 1\n  effect 2: negative eigenvalue -1.000e+00\n",
        ),
    ],
)
def test_invalid_povm_lists_every_problem_and_exits_three(effects, message):
    code, out, err = analyze(Povm(effects), "--tol", "nan")
    assert (code, out, err) == (3, "", "invalid POVM:\n" + message)

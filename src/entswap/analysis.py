"""Parameter sweeps, threshold localization, and analytic-vs-numeric checks.

A "case" selects a measurement family: case I is the Bell-projector family,
cases II, III and IV are the asymmetric family at the preset mixing weights
x = 0.3, 0.725 and 0.8. Case "custom" sweeps a caller-supplied POVM builder.
Each public call resolves its case once, to the ``_Family`` the engine takes.

Every scan of a lambda grid (sweeps, verification, and the grid scans of
classification and extremum search) runs the whole grid as stacked arrays
through ``_grid_values`` (``povm`` array builders, ``swap.swap_stack``,
``measures.report_stack``). Threshold bisection runs on the same engine
(``_bisect_signed``, which runs ``bisect``, an in-repo copy of
``scipy.optimize.bisect`` on one bracket, once per query), whose engine
points solve only what the root reads: outcome 1's eigenvectors alone and
one quantifier spectrum per point (``_signed_values``). The first root
estimate comes from the family's closed forms (``_predicted_root``), and
the paths of every query's estimate share one engine call with the
monotonicity probes. The closed forms only choose the points:
every value a step reads is the engine's. A family's closed forms are the
plain-float core ``swap._closed_form_core`` at its x, which the root
prediction and ``_closed_form_values`` (``verify``, analytic sweeps) read
with no object built per lambda.
``_outcome_values`` gives the quantifiers of all outcomes of one
``run_swap`` call (``entswap analyze``) from one ``measures.report_stack``
call. ``sweep`` turns the stacked values into ``SweepRecord`` rows in bulk,
column by column. The scalar 16-dimensional pipeline, ``run_swap`` plus
``measures``, stays the oracle: it re-checks the last point of every grid
scan, the first root of every bisection, and one pair state of every
``_outcome_values`` call. Every engine point of a bisection, and every
outcome of ``_outcome_values`` against its POVM's effects, is also checked
against the exact identities of the swap (``_check_identities``), which
need no second pipeline. Which outcomes are kept is read from ``swap_stack``'s
mask or ``run_swap``'s ``degenerate`` flags, never decided here. An error
raised at a grid point is re-raised as itself, prefixed by ``_at_lambda``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from . import measures
from .errors import (
    BadParamError,
    EntswapError,
    InvalidPovmError,
    NoBracketError,
    NonMonotoneWarning,
    check_choice,
    check_tolerance,
    check_unit,
    check_unit_array,
)
from .povm import (
    Povm,
    asymmetric_effects,
    asymmetric_povm,
    validate,
    werner_bell_effects,
    werner_bell_povm,
)
from .states import DensityMatrix
from .swap import (
    PAIRS,
    SwapOutcome,
    _closed_form_core,
    _eigenvalue_sums,
    run_swap,
    swap_stack,
)

CASE_PRESETS = {"II": 0.3, "III": 0.725, "IV": 0.8}
PRESETS = ("I", *CASE_PRESETS)
CASES = (*PRESETS, "custom")
MEASURES = measures.QUANTITIES[:4]  # the engine's first four columns, in order

# Analytic closed forms must match the numeric pipeline this tightly.
VERIFY_TOL = 1e-9

_SIGNED = {
    "negativity": measures.negativity_signed,
    "steering2": measures.nonlocality_signed,
    "steering3": measures.steering3_signed,
    "nonlocality": measures.nonlocality_signed,
}

# No code under src/ reads this map; perfbench/tracing.py imports it.
_CLAMPED = {
    "negativity": measures.negativity,
    "steering2": measures.steering2,
    "steering3": measures.steering3,
    "nonlocality": measures.bell_nonlocality,
}


def _resolve_x(case: str, x: float | None) -> float | None:
    """The mixing weight of a case, after checking the case: None for cases
    I and "custom", which take no x, and a float for cases II-IV (the
    preset if x is None)."""
    check_choice("case", case, CASES)
    if case in ("I", "custom"):
        if x is not None:
            raise BadParamError(f"case {case} has no x parameter")
        return None
    if x is None:
        return CASE_PRESETS[case]
    return check_unit("x", x)


class _Family(NamedTuple):
    """A case's measurement family: its resolved x, its POVM at one lambda, its
    effects on a lambda grid, shape (n, k, 4, 4), not yet validated, and its
    closed forms at one lambda, each pair's signed negativity and T^T T
    triple from ``swap._closed_form_core`` (None for case "custom")."""

    x: float | None
    povm: Callable[[float], Povm]
    effects: Callable[[np.ndarray], np.ndarray]
    closed_forms: Callable[[float], tuple] | None


def _family(case: str, x: float | None, povm_builder=None) -> _Family:
    """The family of ``case`` at x (see ``_resolve_x``), built once per
    public call from this module's globals; case "custom" is ``povm_builder``."""
    x = _resolve_x(case, x)
    if case == "custom":
        if povm_builder is None:
            raise BadParamError("case 'custom' needs a povm_builder")
        if not callable(povm_builder):
            raise BadParamError(f"povm_builder must be callable, got {povm_builder!r}")
        return _Family(x, povm_builder, partial(_built_effects, povm_builder), None)
    if povm_builder is not None:
        raise BadParamError(f"case {case!r} takes no povm_builder")
    closed_forms = partial(_closed_form_core, x)
    if case == "I":
        return _Family(x, werner_bell_povm, werner_bell_effects, closed_forms)
    return _Family(x, partial(asymmetric_povm, x), partial(asymmetric_effects, x), closed_forms)


def _check_grid_size(count: int) -> None:
    if not (isinstance(count, numbers.Integral) and count >= 2):
        raise BadParamError(f"grid needs at least 2 points, got {count}")
    if count > np.iinfo(np.intp).max // np.dtype(float).itemsize:  # np.linspace raises ValueError
        raise BadParamError(f"grid of {count} points is beyond numpy's largest array")


def _grid_points(grid) -> np.ndarray:
    """A scan's lambda grid as ascending floats, 101 points on [0, 1] by
    default. Any grid but one axis of real numbers raises BadParamError, as
    does a point outside [0, 1], named in the order the grid gives it."""
    if grid is None:
        return np.linspace(0.0, 1.0, 101)
    try:
        points = np.asarray(grid)
    except ValueError:  # a ragged nesting of sequences
        raise BadParamError("grid must be one axis of real numbers") from None
    _check_grid_size(points.size)
    if points.ndim != 1 or points.dtype.kind not in "biuf":
        raise BadParamError(
            f"grid must be one axis of real numbers, got shape {points.shape} of {points.dtype}"
        )
    return np.sort(check_unit_array("sharpness", points))


@contextmanager
def _at_lambda(lam: float, where: str = ""):
    """Prefix the message of any EntswapError raised inside with the grid
    point and re-raise the same error, so its type and attributes reach the
    caller as its check or builder raised them."""
    try:
        yield
    except EntswapError as exc:
        exc.args = (f"lambda={lam:.12g}: {where}{exc}",)
        raise


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for one family sweep."""

    case: str
    x: float | None = None
    lambda_start: float = 0.0
    lambda_stop: float = 1.0
    count: int = 101
    tol: float = 1e-9
    pipeline: str = "numeric"
    povm_builder: Callable[[float], Povm] | None = None

    def __post_init__(self) -> None:
        _family(self.case, self.x, self.povm_builder)
        start, stop = self.lambda_start, self.lambda_stop
        reals = isinstance(start, numbers.Real) and isinstance(stop, numbers.Real)
        if not (reals and 0.0 <= start <= stop <= 1.0):
            raise BadParamError(f"need 0 <= start <= stop <= 1, got [{start}, {stop}]")
        _check_grid_size(self.count)
        check_tolerance(self.tol)
        check_choice("pipeline", self.pipeline, ("numeric", "analytic", "both"))
        if self.case == "custom" and self.pipeline != "numeric":
            raise BadParamError("custom POVMs have no analytic closed forms")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lambda_start, self.lambda_stop, self.count)


@dataclass(frozen=True)
class SweepRecord:
    """One (lambda, outcome, pair) row of a sweep."""

    case: str
    x: float | None
    lam: float
    outcome: int
    pair: str
    probability: float
    negativity: float
    steering2: float
    steering3: float
    nonlocality: float
    M: float
    Lambda3: float


def sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point, outcome and pair, in deterministic order.

    Rows are ordered by lambda ascending, then outcome, then pair in the
    order (1,4), (1,2), (3,4). Degenerate outcomes contribute no rows. With
    pipeline "analytic" the closed forms replace the numeric engine; with
    "both" the numeric rows are emitted after checking them against the
    closed forms at VERIFY_TOL. The numeric rows of the last grid point are
    checked against the scalar pipeline at VERIFY_TOL. The records are built
    in bulk: each column is one list from the stacked arrays, and each
    record's fields are set at once by ``_records``.
    """
    if not isinstance(cfg, SweepConfig):
        raise BadParamError(f"sweep needs a SweepConfig, got {type(cfg).__name__}")
    family = _family(cfg.case, cfg.x, cfg.povm_builder)
    lams = cfg.grid()
    if cfg.pipeline == "analytic":
        # The built-in families give every outcome probability 1/4.
        values = np.repeat(_closed_form_values(family, lams, cfg.tol)[:, None], 4, axis=1)
        probabilities = np.full(values.shape[:2], 0.25)
        kept = np.ones(values.shape[:2], dtype=bool)
    else:
        probabilities, values, kept = _grid_values(family, lams, cfg.tol)
    if cfg.pipeline == "both":
        deviation, lam, outcome, pair, quantity = _worst_deviation(
            lams, probabilities, values, kept, _closed_form_values(family, lams, cfg.tol)
        )
        if not deviation < VERIFY_TOL:
            raise EntswapError(
                f"lambda={lam:.12g}: closed form deviates by {deviation:.3e} "
                f"(outcome {outcome}, pair {pair or '-'}, {quantity})"
            )

    # One row per kept (lambda, outcome) and pair, each column one list.
    i, j = np.nonzero(kept)
    per_pair = len(PAIRS)
    return _records(zip(
        repeat(cfg.case), repeat(family.x),
        np.repeat(lams[i], per_pair).tolist(), np.repeat(j + 1, per_pair).tolist(),
        PAIRS * len(i), np.repeat(probabilities[i, j], per_pair).tolist(),
        *values[i, j].reshape(-1, len(measures.QUANTITIES)).T.tolist(),
    ))


_RECORD_FIELDS = tuple(field.name for field in fields(SweepRecord))


def _records(rows) -> list[SweepRecord]:
    """``SweepRecord(*row)`` for each row of field values, in field order.

    Each record's ``__dict__`` is filled from its row in one update, where
    the frozen initializer makes one ``object.__setattr__`` call per field.
    """
    new = object.__new__
    records = []
    for row in rows:
        record = new(SweepRecord)
        vars(record).update(zip(_RECORD_FIELDS, row))
        records.append(record)
    return records


def _built_effects(builder, lams: np.ndarray) -> np.ndarray:
    """The effects of the POVMs ``builder`` gives at every lambda, shape
    (n, k, 4, 4); each must be a Povm with as many effects as the first."""
    stacks = []
    for lam in lams.tolist():
        with _at_lambda(lam):
            povm = builder(lam)
            if not isinstance(povm, Povm):
                raise InvalidPovmError(f"builder returned {type(povm).__name__}, not a Povm")
            if stacks and len(povm.effects) != len(stacks[0]):
                raise InvalidPovmError(
                    f"builder returned {len(povm.effects)} effects here "
                    f"but {len(stacks[0])} at lambda={lams[0]:.12g}"
                )
        stacks.append(povm.effects)
    return np.array(stacks)


def _grid_swap(family: _Family, lams: np.ndarray, outcomes: int | None = None):
    """Effects on the grid, shape (n, k, 4, 4), and the probabilities, states
    and kept mask of ``swap_stack`` of their first ``outcomes``."""
    effects = family.effects(lams)
    ok, probabilities, states, kept = swap_stack(effects, outcomes)
    # validate() on the first point swap_stack rejects gives the messages.
    for i in np.flatnonzero(~ok):
        problems = validate(Povm(tuple(effects[i])))
        raise InvalidPovmError(f"lambda={lams[i]:.12g}: " + "; ".join(problems), problems)
    return effects, probabilities, states, kept


def _grid_values(family: _Family, lams: np.ndarray, tol: float, outcomes: int | None = None):
    """Evaluate a family on a lambda grid as stacked arrays.

    Returns the outcome probabilities, shape (n, k), the QUANTITIES columns
    of every pair state in PAIRS order, shape (n, k, 3, 6), and the mask of
    non-degenerate outcomes, shape (n, k); degenerate outcomes have zero
    quantities. With ``outcomes`` set, only the first that many outcomes
    are evaluated (k = outcomes). The last grid point is checked against
    the scalar pipeline.
    """
    _, probabilities, states, kept = _grid_swap(family, lams, outcomes)
    values = _report_values(
        states, kept, tol,
        lambda i, j, p: _at_lambda(lams[i], f"outcome {j + 1}, pair {PAIRS[p]}: "),
    )
    lam = float(lams[-1])
    with _at_lambda(lam):
        _check_outcome(run_swap(family.povm(lam)), values[-1], tol, probabilities[-1])
    return probabilities, values, kept


def _report_values(states, kept, tol: float, where=lambda *index: nullcontext()):
    """The QUANTITIES columns of a stack of pair states, shape (..., 3, 4, 4).

    ``kept`` masks the outcomes, shape (...); the result, shape (..., 3, 6),
    is zero for the others. One ``measures.report_stack`` call covers every
    kept state. ``report`` on a state the stacked checks reject raises its
    error, inside the context ``where(*index)`` of the state's index, or
    overrules them and gives the values.
    """
    values = np.zeros(states.shape[:-2] + (len(measures.QUANTITIES),))
    ok = np.ones(states.shape[:-2], dtype=bool)
    values[kept], ok[kept] = measures.report_stack(states[kept], tol)
    for index in map(tuple, np.argwhere(~ok).tolist()):
        with where(*index):
            values[index] = list(measures.report(states[index], tol).values().values())
    return values


def _outcome_values(p: Povm, outcomes: list[SwapOutcome], tol: float) -> np.ndarray:
    """The QUANTITIES columns of every pair state of the outcomes of ``run_swap(p)``.

    Returns shape (k, 3, 6), pairs in PAIRS order, zero for degenerate
    outcomes, from ``_report_values`` on the stacked states. The states must
    meet the exact identities of the swap against the effects of ``p``
    (``_check_identities``), and the (1,4) state of the first non-degenerate
    outcome ``_check_outcome``'s scalar check.
    """
    kept = np.array([not o.degenerate for o in outcomes])
    states = np.zeros((len(outcomes), len(PAIRS), 4, 4), dtype=complex)
    states[kept] = [
        [o.pair_state(pair).matrix for pair in PAIRS] for o in outcomes if not o.degenerate
    ]
    probabilities = np.array([[o.probability for o in outcomes]])
    _check_identities(None, np.array(p.effects)[None], probabilities, states[None], kept[None])
    values = _report_values(states, kept, tol)
    _check_outcome(outcomes, values, tol, pairs=("14",))
    return values


def _closed_form_values(family: _Family, lams: np.ndarray, tol: float) -> np.ndarray:
    """The QUANTITIES columns of every pair from the closed forms, shape (n, 3, 6).

    One ``family.closed_forms`` call per lambda gives each pair's signed
    negativity and T^T T triple; ``measures._report_columns``, the stacked
    rule of ``report_stack``, clamps them, so each row is the
    ``values()`` of the closed forms' ``report(pair, tol)``. At the first
    (lambda, pair) that breaks the hierarchy, ``CorrelationReport`` raises
    the error ``report`` raises, prefixed with lambda.
    """
    core = np.array([
        [(negativity, *t) for negativity, t in family.closed_forms(lam)] for lam in lams.tolist()
    ])
    negativity, t = core[..., 0], np.sort(core[..., 1:])  # t ascending
    m_value = t[..., 2] + t[..., 1]
    lambda3 = m_value + t[..., 0]
    n, s3 = measures.nonlocality_from_pair_sum(m_value), measures.steering3_from_total(lambda3)
    values, ordered = measures._report_columns(negativity, n, s3, m_value, lambda3, tol)
    for i, p in np.argwhere(~ordered)[:1].tolist():
        with _at_lambda(float(lams[i])):
            measures.CorrelationReport.from_quantities(
                negativity[i, p], m_value[i, p], lambda3[i, p], tol
            )
    return values


def _worst_deviation(lams, probabilities, values, kept, expected):
    """The largest deviation of a grid evaluation from the closed forms.

    Every outcome probability is compared with the family value 1/4, and
    every quantity of a kept outcome with ``expected`` from
    ``_closed_form_values``. Returns (deviation, lambda, outcome, pair,
    quantity) of the first maximum in the order lambda, outcome,
    probability, then pair and quantity; the pair of a probability is "".
    """
    quantities = np.where(kept[..., None, None], np.abs(values - expected[:, None]), 0.0)
    deviation = np.concatenate(
        [np.abs(probabilities - 0.25)[..., None], quantities.reshape(*kept.shape, -1)], axis=-1
    )
    i, j, c = np.unravel_index(np.argmax(deviation), deviation.shape)
    if c == 0:
        pair, quantity = "", "probability"
    else:
        p, q = divmod(int(c) - 1, len(measures.QUANTITIES))
        pair, quantity = PAIRS[p], measures.QUANTITIES[q]
    return float(deviation[i, j, c]), float(lams[i]), int(j) + 1, pair, quantity


def _check_outcome(outcomes, values, tol: float, probabilities=None, pairs=PAIRS) -> None:
    """Compare the first non-degenerate of the first k ``run_swap``
    ``outcomes`` with its row of the batched ``values``, shape (k, 3, 6):
    its probability, if ``probabilities`` are given, then the six QUANTITIES
    of each pair in ``pairs`` against ``report``, within VERIFY_TOL."""
    outcome = next(o for o in outcomes[: len(values)] if not o.degenerate)
    j = outcome.outcome_index - 1
    checks = []
    if probabilities is not None:
        checks.append(("probability", probabilities[j], outcome.probability))
    for pair in pairs:
        scalar = measures.report(outcome.pair_state(pair), tol).values()
        checks += [(f"pair {pair} {name}", values[j, PAIRS.index(pair), q], scalar[name])
                   for q, name in enumerate(measures.QUANTITIES)]
    _compare(j + 1, checks)


def _compare(outcome: int, checks: list[tuple]) -> None:
    """Raise unless every (name, batched, scalar) check of an outcome agrees
    within VERIFY_TOL."""
    for name, batched, scalar in checks:
        if not abs(batched - scalar) <= VERIFY_TOL:
            raise EntswapError(
                f"batched engine deviates from the scalar pipeline at outcome "
                f"{outcome}: {name} is {float(batched)!r}, scalar {scalar!r}"
            )


@dataclass(frozen=True)
class ThresholdResult:
    """Bisected sign change of one signed measure."""

    measure: str
    pair: str
    bracket: tuple[float, float]
    root: float
    achieved_tol: float


def _signed_pair_value(builder, lam: float, pair: str, measure: str) -> float:
    state: DensityMatrix = run_swap(builder(lam))[0].pair_state(pair)
    return _SIGNED[measure](state)


# scipy.optimize.bisect's default relative tolerance, 4 machine epsilons.
_RTOL = 4 * float(np.finfo(float).eps)
# Steps a bisection may take before it gives up.
_MAXITER = 200
# Bisection levels whose midpoints, with the ends, are a bracket's
# monotonicity probes (``_probes``): 2**_LEVELS - 1 midpoints.
_LEVELS = 4


def bisect(f, a: float, b: float, fa: float, fb: float, xtol: float, guess: float) -> float:
    """``scipy.optimize.bisect`` step for step on the bracket [a, b], whose
    ends have the function values ``fa`` and ``fb``: the root, as scipy
    returns it.

    ``f(x)`` gives the function values at the list of points ``x``. The root
    is an end where f is exactly 0 (a first), or else it repeats: halve dm,
    set xm = a + dm, move a to xm when f(xm) is 0 or has the sign of f(a),
    the value at the first end, and stop with xm when f(xm) == 0 or
    |dm| < xtol + 4 eps |xm|. So every root is an end or a midpoint that f
    was called at.

    Each call to f evaluates the path the steps take if the root is at an
    estimate r, one midpoint per step, down to the step where that rule
    stops or the steps run out (``_path``). The steps are then taken while
    the next midpoint a + dm/2 is one of the call's points, so the walk
    ends for the call at the first step whose sign differs from the
    prediction. A call thus takes at least one step, and all of them when r
    is close enough. Every value the walk reads is f at the very midpoint
    the step takes, and points it does not reach are discarded, so the root
    is that of one step per call. r is ``guess`` (NaN for none) at first, or
    else regula falsi on the ends, and regula falsi on the new bracket after
    each call, so its error about squares per call on a smooth f. A
    non-finite end (before any call of f), a NaN end value, same-sign end
    values, a NaN at a point the walk reaches, and a bracket still open
    after _MAXITER steps raise.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BadParamError(f"bracket ends must be finite, got {a!r} and {b!r}")
    for v, x in ((fa, a), (fb, b)):
        if v != v:
            raise EntswapError(f"the function value at x={x!r} is NaN")
    # Signs, not the product fa * fb, which can underflow to 0.
    if fa != 0 and fb != 0 and (fa > 0) == (fb > 0):
        raise NoBracketError(f"f has the same sign at {a!r} and {b!r}")
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    f_start, dm, steps = fa, b - a, 0
    estimate = _estimate(a, b, guess if guess == guess else _regula_falsi(a, b, fa, fb))
    while steps < _MAXITER:
        points = _path(a, dm, estimate, _MAXITER - steps, xtol)
        values = dict(zip(points, f(points)))
        while (x := a + dm * 0.5) in values:
            v = values[x]
            if v != v:
                raise EntswapError(f"the function value at x={x!r} is NaN")
            if v == 0 or (v > 0) == (f_start > 0):
                a, fa = x, v
            else:
                b, fb = x, v
            dm, steps = dm * 0.5, steps + 1
            if v == 0 or abs(dm) < xtol + _RTOL * abs(x):
                return x
        estimate = _estimate(a, b, _regula_falsi(a, b, fa, fb))
    raise EntswapError(
        f"bisection did not converge in {_MAXITER} iterations, bracket [{a!r}, {b!r}]"
    )


def _path(start: float, dm: float, r: float, count: int, xtol: float) -> list[float]:
    """The midpoints of the next ``count`` steps of ``bisect`` from the
    first end ``start`` and width ``dm`` if the root is at r: a moves to
    each midpoint on the first end's side of r. The path ends early at the
    first midpoint x where |dm| < xtol + 4 eps |x|."""
    points = []
    for _ in range(count):
        dm *= 0.5
        x = start + dm
        points.append(x)
        if abs(dm) < xtol + _RTOL * abs(x):
            break
        if r >= x if dm > 0 else r <= x:
            start = x
    return points


def _probes(a: float, b: float) -> list[float]:
    """The monotonicity probes of the bracket [a, b], sorted: its ends and
    the midpoints of its first _LEVELS bisection levels, formed as the
    steps of ``bisect`` form them, each level halving dm and adding it to
    a and to the midpoints above."""
    points, dm = [a], b - a
    for _ in range(_LEVELS):
        dm *= 0.5
        points += [s + dm for s in points]
    return sorted([*points, b])


def _regula_falsi(a: float, b: float, fa: float, fb: float) -> float:
    """Where the chord from (a, fa) to (b, fb) crosses 0; NaN if fb == fa."""
    return a - fa * (b - a) / (fb - fa) if fb != fa else float("nan")


def _estimate(a: float, b: float, x: float) -> float:
    """``x`` clipped into the bracket [a, b], or its midpoint if x is NaN."""
    return min(max(x, min(a, b)), max(a, b)) if x == x else a + (b - a) / 2


# The exact identities of a swap outcome with effect E, in the order
# ``_check_identities`` checks them.
_IDENTITIES = (
    "probability deviates from tr(E)/4",
    "(1,4) state deviates from conj(E)/tr(E)",
    "qubit-1 marginal of (1,2) deviates from that of (1,4)",
    "qubit-4 marginal of (3,4) deviates from that of (1,4)",
)


def _check_identities(lams, effects, probabilities, states, kept) -> None:
    """Raise unless every kept outcome of ``swap_stack(effects)``, effects
    of shape (n, k, 4, 4) at the n lambdas ``lams`` (None for one POVM that
    has no lambda) and ``kept`` the swap's mask of non-degenerate outcomes,
    shape (n, k), meets the exact identities of the swap within VERIFY_TOL.

    Both pairs start maximally entangled, so effect E has probability
    tr(E)/4 and (1,4) state conj(E)/tr(E), as ``rho14_spectral`` computes,
    and the three pair states are marginals of one four-qubit state: the
    (1,2) and (1,4) states share the state of qubit 1, the (3,4) and (1,4)
    states that of qubit 4. The state identities are weighted by tr(E):
    ``validate`` lets an eigenvalue of E reach -POVM_ATOL and the swap's root
    clamps it to 0, so the states of an outcome of small tr(E) may deviate
    by about POVM_ATOL / tr(E); the effects of the built-in families have
    trace 1. The error names the first failing outcome, in row order, by
    lambda (if any) and index, then the identity and its deviation.
    """
    effects, states = effects[kept], states[kept]
    trace = np.trace(effects, axis1=-2, axis2=-1).real
    rho14 = states[:, 0]
    # The (1,2) and (3,4) states less the (1,4) state; qubit 1 is the first
    # qubit of (1,2) and (1,4), qubit 4 the second of (3,4) and (1,4).
    d = (states[:, 1:] - rho14[:, None]) * trace[:, None, None, None]
    m = len(trace)
    residuals = np.abs(np.concatenate([
        (probabilities[kept] - trace / 4)[:, None],
        (trace[:, None, None] * rho14 - effects.conj()).reshape(m, 16),
        (d[:, 0, ::2, ::2] + d[:, 0, 1::2, 1::2]).reshape(m, 4),
        (d[:, 1, :2, :2] + d[:, 1, 2:, 2:]).reshape(m, 4),
    ], axis=1))
    if residuals.max(initial=0.0) <= VERIFY_TOL:  # False for NaN
        return
    # The first column of each identity in ``residuals``.
    deviations = np.maximum.reduceat(residuals, [0, 1, 17, 21], axis=1)
    row, identity = np.argwhere(~(deviations <= VERIFY_TOL))[0]
    i, j = np.argwhere(kept)[row]
    where = "" if lams is None else f"lambda={float(lams[i]):.12g}: "
    raise EntswapError(
        f"{where}outcome {j + 1}: {_IDENTITIES[identity]} by {deviations[row, identity]:.3e}"
    )


def _signed_values(family: _Family, lams, pairs, columns) -> np.ndarray:
    """Signed quantities of outcome 1 at each lambda, on the batched engine.

    Row i reads pair PAIRS[pairs[i]] and measure MEASURES[columns[i]]. Only
    outcome 1 is rooted (``swap_stack(effects, 1)``), and each row solves
    only the spectrum its measure reads (``measures._signed_rows``). Every
    non-degenerate row must meet the exact identities of the swap
    (``_check_identities``). A degenerate outcome or a state the stacked
    checks reject goes to ``_signed_pair_value``, which raises its error or
    gives the value.
    """
    effects, probabilities, states, kept = _grid_swap(family, lams, 1)
    _check_identities(lams, effects[:, :1], probabilities, states, kept)
    values, ok = measures._signed_rows(states[np.arange(lams.size), 0, pairs], columns)
    ok &= kept[:, 0]
    for i in np.flatnonzero(~ok):
        lam, pair, measure = float(lams[i]), PAIRS[pairs[i]], MEASURES[columns[i]]
        with _at_lambda(lam):
            values[i] = _signed_pair_value(family.povm, lam, pair, measure)
    return values


def _bisect_signed(family: _Family, queries: list[tuple], tol: float) -> list[float]:
    """Bisect, on the batched engine, where each query's signed measure of
    outcome 1 crosses its offset; a query is (pair, measure, lo, hi, offset).

    The probes of every bracket are its ends and the 15 midpoints of the
    first four levels of ``bisect`` (``_probes``). The first root estimate
    of each bracket is the root of the family's closed forms
    (``_predicted_root``, NaN where it finds none), and one stacked engine
    call evaluates the probes and that estimate's path (``_path``). Each
    query is then bisected alone (``bisect``), whose first call reads that
    path back; a guess that misses costs its query one more call, which
    evaluates only points not seen before. A bracket whose ends lie on
    the same side of the offset raises, in query order; one whose 17
    probes, ordered from lo to hi, are not monotone warns. Every engine
    point meets the exact identities of the swap (see ``_signed_values``),
    and at the first query's root the scalar pipeline must give the
    engine's signed value within VERIFY_TOL: one ``run_swap`` per call.
    """
    # Every (query, lambda) reaches the engine once: tables[i] holds query
    # i's signed value less its offset at each lambda it has been evaluated at.
    tables: list[dict[float, float]] = [{} for _ in queries]

    def f(requests):
        """One value list per request (query index, lambdas), from one engine
        call for the points no table holds."""
        new = list(dict.fromkeys((i, x) for i, lams in requests for x in lams if x not in tables[i]))
        if new:
            at, points = zip(*new)
            pairs = [PAIRS.index(queries[i][0]) for i in at]
            columns = [MEASURES.index(queries[i][1]) for i in at]
            values = _signed_values(family, np.array(points), pairs, columns)
            for (i, x), v in zip(new, values.tolist()):
                tables[i][x] = v - queries[i][4]
        return [[tables[i][x] for x in lams] for i, lams in requests]

    # One engine call holds the probes of every bracket and the path its
    # steps take if the root is at the closed-form guess, so bisect's first
    # call reads its path back; a guess that misses costs its query a call.
    guess = [_predicted_root(family.closed_forms, query) for query in queries]
    probes = [(i, _probes(lo, hi)) for i, (_, _, lo, hi, _) in enumerate(queries)]
    paths = [(i, _path(lo, hi - lo, r, _MAXITER, tol))
             for i, ((_, _, lo, hi, _), r) in enumerate(zip(queries, guess)) if r == r]
    values = f(probes + paths)[:len(queries)]
    for (pair, measure, _, _, offset), v in zip(queries, values):
        if (v[0] > 0.0) == (v[-1] > 0.0):
            raise NoBracketError(
                f"{measure} of pair {pair} classifies identically at both ends "
                f"({v[0] + offset:.3e} and {v[-1] + offset:.3e})"
            )
    for (pair, measure, a, b, _), v in zip(queries, values):
        steps = [right - left for left, right in zip(v, v[1:])]
        if not (all(d >= -1e-12 for d in steps) or all(d <= 1e-12 for d in steps)):
            warnings.warn(
                f"{measure} of pair {pair} is not monotone on [{a:g}, {b:g}]",
                NonMonotoneWarning,
                stacklevel=3,
            )

    roots = [
        bisect(lambda lams: f([(i, lams)])[0], lo, hi, v[0], v[-1], tol, r)
        for i, ((_, _, lo, hi, _), v, r) in enumerate(zip(queries, values, guess))
    ]
    pair, measure, _, _, offset = queries[0]
    lam = roots[0]
    with _at_lambda(lam):
        scalar = _signed_pair_value(family.povm, lam, pair, measure)
        # The root is a probed end or a midpoint of the walk, so its table has its value.
        _compare(1, [(f"pair {pair} {measure}", tables[0][lam] + offset, scalar)])
    return roots


# Regula falsi steps ``_predicted_root`` may take.
_PREDICT_STEPS = 100


def _closed_signed(measure: str, negativity: float, t: tuple) -> float:
    """The signed measure of a pair from its closed-form signed negativity
    and T^T T triple t: the value ``_SIGNED[measure]`` gives on the pair state."""
    if measure == "negativity":
        return negativity
    m_value, lambda3 = _eigenvalue_sums(t)
    if measure == "steering3":
        return float(measures.steering3_from_total(lambda3))
    return float(measures.nonlocality_from_pair_sum(m_value))


def _predicted_root(closed_forms, query: tuple) -> float:
    """Where the signed measure of a query (pair, measure, lo, hi, offset)
    crosses its offset in [lo, hi] on the family's ``closed_forms(lam)``
    (see ``_Family``), which builds no object per step.

    Regula falsi with the Illinois rule (the value at an end kept twice in a
    row is halved), each point kept strictly inside the bracket, else its
    midpoint, until a point is a root, no float lies strictly between the
    ends, or _PREDICT_STEPS steps are taken. NaN where the ends lie on the
    same side of the offset (as ``_bisect_signed`` sees sides), or at a
    value that is not finite.
    """
    pair, measure, a, b, offset = query
    p = PAIRS.index(pair)
    g = lambda lam: _closed_signed(measure, *closed_forms(lam)[p]) - offset
    fa, fb = g(a), g(b)
    if not (math.isfinite(fa) and math.isfinite(fb)) or (fa > 0.0) == (fb > 0.0):
        return float("nan")
    side = 0  # 1 where the last point replaced a, -1 where it replaced b
    for _ in range(_PREDICT_STEPS):
        x = _regula_falsi(a, b, fa, fb)
        if not a < x < b:
            x = a + (b - a) / 2
            if not a < x < b:
                break
        fx = g(x)
        if not math.isfinite(fx):
            return float("nan")
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            fb *= 0.5 if side == 1 else 1.0
            side = 1
        else:
            b, fb = x, fx
            fa *= 0.5 if side == -1 else 1.0
            side = -1
    return a + (b - a) / 2


def find_threshold(
    case: str,
    x: float | None,
    pair: str,
    measure: str,
    bracket: tuple[float, float],
    tol: float = 1e-9,
) -> ThresholdResult:
    """Bisect the lambda at which a measure switches classification.

    The bisection runs on the signed (unclamped) quantifier of the first
    outcome's conditional state, so the root is a genuine sign change rather
    than the edge of a clamped-to-zero plateau. It takes the steps of
    ``scipy.optimize.bisect`` at xtol ``tol``, and returns its root bit for
    bit, but evaluates on the batched engine (see ``bisect`` and
    ``_bisect_signed``); a root usually takes one engine call, and one more
    where the closed-form guess misses. Every engine point is checked
    against the exact identities of the swap, and one ``run_swap`` checks
    the root.
    Monotonicity over the bracket is the caller's responsibility; a check on
    17 probes, the ends and the midpoints of the first four bisection
    levels, emits NonMonotoneWarning when it looks violated.
    """
    check_choice("pair", pair, PAIRS)
    check_choice("measure", measure, MEASURES)
    try:
        lo, hi = bracket
        ok = isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real) and 0 <= lo < hi <= 1
    except (TypeError, ValueError):  # not a pair
        ok = False
    if not ok:
        raise BadParamError(f"bracket must satisfy 0 <= lo < hi <= 1, got {bracket}")
    lo, hi = float(lo), float(hi)
    check_tolerance(tol)
    [root] = _bisect_signed(_family(case, x), [(pair, measure, lo, hi, 0.0)], tol)
    return ThresholdResult(measure, pair, (lo, hi), root, achieved_tol=tol)


@dataclass(frozen=True)
class MeasureRange:
    """Interval of sharpness values on which a measure is positive.

    kind "never" and "all" refer to the half-open interval (0, 1]; "above"
    means positive for lam > threshold, "below" positive for lam below it.
    The lambda = 0 grid point never enters classification.
    """

    kind: str
    threshold: float | None = None

    def describe(self) -> str:
        if self.kind == "never":
            return "never"
        if self.kind == "all":
            return "0 < lam <= 1"
        if self.kind == "above":
            return f"{self.threshold:.6f} < lam <= 1"
        return f"0 <= lam < {self.threshold:.6f}"


def classify_table(
    case: str,
    x: float | None = None,
    grid: np.ndarray | None = None,
    tol: float = 1e-9,
    root_tol: float = 1e-9,
) -> dict[tuple[str, str], MeasureRange]:
    """Positivity pattern of every (pair, measure) over the sharpness grid.

    The grid points with lambda > 0 are classified by whether the
    quantifiers of the first outcome exceed ``tol``; interval endpoints are
    then bisected to ``root_tol`` in lambda on the signed quantifiers. An
    endpoint is the zero crossing of the signed quantifier where the grid
    point classified not positive has the clamped value 0, which is where
    the measure appears or vanishes. Otherwise the grid flips across ``tol``
    with the quantifier positive on both sides, and the endpoint is where the
    signed quantifier crosses ``tol``. Patterns that are not a single
    interval raise.
    """
    check_tolerance(tol)
    check_tolerance(root_tol)
    grid = _grid_points(grid)
    lams = grid[grid > 0.0]
    if lams.size == 0:
        raise BadParamError("classification needs a grid point with lambda > 0")
    family = _family(case, x)
    _, values, _ = _grid_values(family, lams, tol, outcomes=1)

    kinds: dict[tuple[str, str], str] = {}  # the pattern of each (pair, measure)
    ends: dict[tuple[str, str], tuple] = {}  # the query of each interval end
    # Nonlocality reads steering2's column and signed function, so it takes
    # steering2's range.
    classified = [measure for measure in MEASURES if measure != "nonlocality"]
    for key in [(pair, measure) for pair in PAIRS for measure in classified]:
        pair, measure = key
        # Outcome 1; with tol > 0 a clamped value exceeds tol exactly where
        # the signed one does.
        column = values[:, 0, PAIRS.index(pair), measures.QUANTITIES.index(measure)]
        positive = column > tol
        if not positive.any():
            kinds[key] = "never"
        elif positive.all():
            kinds[key] = "all"
        else:
            flips = np.flatnonzero(np.diff(positive.astype(int)))
            if flips.size != 1:
                raise EntswapError(
                    f"{measure} of pair {pair} is positive on {positive.sum()} "
                    "grid points that do not form a single interval"
                )
            i = int(flips[0])
            kinds[key] = "above" if positive[-1] else "below"
            # The zero crossing where the end classified not positive is
            # clamped to 0, else the crossing of tol that the grid saw.
            offset = 0.0 if column[i + 1 if positive[i] else i] == 0.0 else tol
            ends[key] = (pair, measure, float(lams[i]), float(lams[i + 1]), offset)
    roots = dict(zip(ends, _bisect_signed(family, [*ends.values()], root_tol) if ends else []))
    return {
        (pair, measure): MeasureRange(kinds[key], threshold=roots.get(key))
        for pair in PAIRS for measure in MEASURES
        for key in [(pair, "steering2" if measure == "nonlocality" else measure)]
    }


# Points of each refinement scan of ``find_extremum``, from one neighbour of
# the argmax to the other, so each scan brings the neighbours 16 times closer.
_REFINE_POINTS = 33


def find_extremum(
    case: str,
    x: float | None,
    pair: str,
    measure: str,
    grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """Locate the maximum of a measure of outcome 1 over the sharpness grid.

    The grid argmax is refined by grid scans of _REFINE_POINTS points, each
    from one neighbour of the current argmax to the other, re-centred on the
    scan's argmax held one point inside its ends, until the neighbours are
    within 1e-6 in lambda. Returns the best point of the last scan and its
    value; a boundary argmax of the grid is returned as-is. Every scan runs
    on the batched engine, and the scalar pipeline checks its last point.
    """
    lams = _grid_points(grid)
    check_choice("pair", pair, PAIRS)
    check_choice("measure", measure, MEASURES)
    family = _family(case, x)
    p, q = PAIRS.index(pair), measures.QUANTITIES.index(measure)
    values = _grid_values(family, lams, 1e-9, outcomes=1)[1][:, 0, p, q]
    best = peak = int(np.argmax(values))
    if peak in (0, len(lams) - 1):
        return float(lams[peak]), float(values[peak])
    while abs(lams[peak + 1] - lams[peak - 1]) > 1e-6:
        lams = np.linspace(lams[peak - 1], lams[peak + 1], _REFINE_POINTS)
        values = _grid_values(family, lams, 1e-9, outcomes=1)[1][:, 0, p, q]
        best = int(np.argmax(values))
        peak = min(max(best, 1), _REFINE_POINTS - 2)
    return float(lams[best]), float(values[best])


@dataclass(frozen=True)
class VerificationReport:
    """Worst analytic-vs-numeric deviation over a sweep grid."""

    case: str
    x: float | None
    points: int
    max_deviation: float
    worst_lam: float
    worst_outcome: int
    worst_pair: str
    worst_quantity: str
    passed: bool


def verify(
    case: str, x: float | None = None, grid: np.ndarray | None = None
) -> VerificationReport:
    """Compare closed forms against the numeric engine on a grid.

    The grid runs on the batched engine, whose last point is re-checked by
    the scalar pipeline. Every quantifier of every pair and outcome is
    compared, as is the outcome probability against the family value 1/4.
    The report passes iff the worst absolute deviation stays below
    VERIFY_TOL.
    """
    if not isinstance(case, str) or case not in PRESETS:
        raise BadParamError(f"verification needs a preset case, got {case!r}")
    grid = _grid_points(grid)
    family = _family(case, x)
    tol = 1e-9  # report()'s default classification tolerance
    worst = _worst_deviation(
        grid, *_grid_values(family, grid, tol), _closed_form_values(family, grid, tol)
    )
    return VerificationReport(case, family.x, len(grid), *worst, passed=worst[0] < VERIFY_TOL)

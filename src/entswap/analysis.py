"""Parameter sweeps, threshold localization, and analytic-vs-numeric checks.

A "case" selects a measurement family: case I is the Bell-projector family,
cases II, III and IV are the asymmetric family at the preset mixing weights
x = 0.3, 0.725 and 0.8. Case "custom" sweeps a caller-supplied POVM builder.
Each public call resolves its case once, to the ``_Family`` the engine takes.

Every scan of a lambda grid (sweeps, verification, and the grid scans of
classification and extremum search) runs the whole grid as stacked arrays
through ``_grid_values`` (``povm`` array builders, ``swap.swap_stack``,
``measures.report_stack``). Threshold bisection runs on the same engine
(``_bisect_signed`` with ``bisect``, an in-repo copy of
``scipy.optimize.bisect``): each stacked call evaluates, for every open
bracket, the path its steps take if the root is at an estimate, and then
takes scipy's steps through it until one leaves the path. The ends and the
midpoints of the first four levels are the monotonicity probes, evaluated
once; the first estimate is inverse interpolation through the probes about
the sign change, each later one regula falsi on the new bracket.
``_outcome_values`` gives the quantifiers of all outcomes of one
``run_swap`` call (``entswap analyze``) from one ``measures.report_stack``
call. ``sweep`` turns the stacked values into ``SweepRecord`` rows in bulk,
column by column. The scalar 16-dimensional pipeline, ``run_swap`` plus
``measures``, stays the oracle: it re-checks the last point of every grid
scan, one end of the first root's final bracket of every bisection, and one
pair state of every ``_outcome_values`` call. Every engine point of a
bisection is also checked against the exact identities of the swap
(``_check_identities``), which need no second pipeline.
"""

from __future__ import annotations

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
    check_unit_array,
    outside_unit,
)
from .povm import (
    Povm,
    asymmetric_effects,
    asymmetric_povm,
    is_povm,
    validate,
    werner_bell_effects,
    werner_bell_povm,
)
from .states import DensityMatrix
from .swap import (
    DEGENERATE_PROBABILITY,
    PAIRS,
    SwapOutcome,
    case1_closed_forms,
    case2_closed_forms,
    run_swap,
    swap_stack,
)

CASES = ("I", "II", "III", "IV", "custom")
CASE_PRESETS = {"II": 0.3, "III": 0.725, "IV": 0.8}
MEASURES = ("negativity", "steering2", "steering3", "nonlocality")

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
    """The mixing weight of a case, after checking the case: None for case
    I, which takes no x, a float for a preset case (its preset if x is
    None), and x as given for case "custom"."""
    check_choice("case", case, CASES)
    if case == "I":
        if x is not None:
            raise BadParamError("case I has no x parameter")
        return None
    if case == "custom":
        return x
    if x is None:
        return CASE_PRESETS[case]
    try:
        return float(x)
    except (TypeError, ValueError):
        raise outside_unit("x", x) from None


class _Family(NamedTuple):
    """A case's measurement family: its resolved x, its POVM at one lambda, its
    effects on a lambda grid, shape (n, k, 4, 4), not yet validated, and its
    closed forms at one lambda (None for case "custom")."""

    x: float | None
    povm: Callable[[float], Povm]
    effects: Callable[[np.ndarray], np.ndarray]
    closed_forms: Callable[[float], object] | None


def _family(case: str, x: float | None, povm_builder=None) -> _Family:
    """The family of ``case`` at x (see ``_resolve_x``), built once per
    public call from this module's globals; case "custom" is ``povm_builder``."""
    x = _resolve_x(case, x)
    if case == "I":
        return _Family(x, werner_bell_povm, werner_bell_effects, case1_closed_forms)
    if case == "custom":
        if povm_builder is None:
            raise BadParamError("case 'custom' needs a povm_builder")
        return _Family(x, povm_builder, partial(_built_effects, povm_builder), None)
    return _Family(
        x, partial(asymmetric_povm, x), partial(asymmetric_effects, x),
        partial(case2_closed_forms, x),
    )


def _check_grid_size(count: int) -> None:
    if not (isinstance(count, numbers.Integral) and count >= 2):
        raise BadParamError(f"grid needs at least 2 points, got {count}")


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
    """Prefix any EntswapError raised inside with the grid point."""
    try:
        yield
    except EntswapError as exc:
        raise type(exc)(f"lambda={lam:.12g}: {where}{exc}") from exc


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
        check_choice("case", self.case, CASES)
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
        if deviation > VERIFY_TOL:
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
    (n, k, 4, 4); each POVM must have as many effects as the first."""
    stacks = []
    for lam in lams.tolist():
        with _at_lambda(lam):
            povm = builder(lam)
            if stacks and len(povm.effects) != len(stacks[0]):
                raise InvalidPovmError(
                    f"builder returned {len(povm.effects)} effects here "
                    f"but {len(stacks[0])} at lambda={lams[0]:.12g}"
                )
        stacks.append(povm.effects)
    return np.array(stacks)


def _grid_effects(family: _Family, lams: np.ndarray) -> np.ndarray:
    """Effects at every grid point, shape (n, k, 4, 4), validated."""
    effects = family.effects(lams)
    # validate() on a point the stacked check rejects gives the messages.
    for i in np.flatnonzero(~is_povm(effects)):
        problems = validate(Povm(tuple(effects[i])))
        if problems:
            raise InvalidPovmError(f"lambda={lams[i]:.12g}: " + "; ".join(problems))
    return effects


def _grid_values(family: _Family, lams: np.ndarray, tol: float, outcomes: int | None = None):
    """Evaluate a family on a lambda grid as stacked arrays.

    Returns the outcome probabilities, shape (n, k), the QUANTITIES columns
    of every pair state in PAIRS order, shape (n, k, 3, 6), and the mask of
    non-degenerate outcomes, shape (n, k); degenerate outcomes have zero
    quantities. With ``outcomes`` set, only the first that many outcomes
    are evaluated (k = outcomes). The last grid point is checked against
    the scalar pipeline.
    """
    effects = _grid_effects(family, lams)[:, :outcomes]
    probabilities, states = swap_stack(effects)
    kept = probabilities >= DEGENERATE_PROBABILITY
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


def _outcome_values(outcomes: list[SwapOutcome], tol: float) -> np.ndarray:
    """The QUANTITIES columns of every pair state of ``run_swap`` outcomes.

    Returns shape (k, 3, 6), pairs in PAIRS order, zero for degenerate
    outcomes, from ``_report_values`` on the stacked states, whose (1,4)
    state of the first non-degenerate outcome ``_check_outcome`` checks.
    """
    kept = np.array([not o.degenerate for o in outcomes])
    states = np.zeros((len(outcomes), len(PAIRS), 4, 4), dtype=complex)
    states[kept] = [
        [o.pair_state(pair).matrix for pair in PAIRS] for o in outcomes if not o.degenerate
    ]
    values = _report_values(states, kept, tol)
    _check_outcome(outcomes, values, tol, pairs=("14",))
    return values


def _closed_form_values(family: _Family, lams: np.ndarray, tol: float) -> np.ndarray:
    """The QUANTITIES columns of every pair from the closed forms, shape (n, 3, 6)."""
    rows = []
    for lam in lams.tolist():
        with _at_lambda(lam):
            forms = family.closed_forms(lam)
            rows.append([list(forms.report(pair, tol).values().values()) for pair in PAIRS])
    return np.array(rows)


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


class Bisection(NamedTuple):
    """Roots of ``bisect`` with each one's final bracket [a, b], where a is
    on the side of the first end, and the function values at a and b."""

    root: np.ndarray
    a: np.ndarray
    b: np.ndarray
    fa: np.ndarray
    fb: np.ndarray


def bisect(f, a, b, fa, fb, xtol: float, guess) -> Bisection:
    """``scipy.optimize.bisect`` step for step, on several brackets at once.

    ``fa`` and ``fb`` are the function values at the ends ``a`` and ``b``;
    ``f(x, rows)`` gives the function values of the brackets with indices
    ``rows`` at the points ``x``. Each bracket returns an end where f is
    exactly 0 (a first), or else repeats: halve dm, set xm = a + dm, move a
    to xm when f(xm) is 0 or has the sign of f(a), the value at the first
    end, and stop with xm when f(xm) == 0 or |dm| < xtol + 4 eps |xm|.

    Each call to f evaluates, for every open bracket, the path its steps
    take if the root is at an estimate r, one midpoint per step, down to
    the step where that rule stops or the steps run out (see
    ``_Bracket.path``). ``rows`` repeats each bracket's index once per
    point. Each bracket then gets its call's values as a map from point to
    value and takes the rule's steps while the next midpoint a + dm/2 is a
    key, so its walk ends for the call at the first step whose sign differs
    from the prediction. A call thus takes at least one step per open
    bracket, and all of them when r is close enough. Every value a walk
    reads is f at the very midpoint the step takes, and points it does not
    reach are discarded, so the roots, final brackets and values are those
    of one step per call. r is ``guess`` (one per bracket, NaN for none) at
    first, or else regula falsi on the ends, and regula falsi on the new
    bracket after each call, so its error about squares per call on a
    smooth f. Brackets whose ends have the same sign, a NaN at a point the
    walk reaches, and brackets still open after _MAXITER steps raise.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    fa, fb = (_not_nan(np.array(v, dtype=float, ndmin=1), x) for v, x in ((fa, a), (fb, b)))
    for i in np.flatnonzero(np.sign(fa) * np.sign(fb) > 0):
        raise NoBracketError(f"f has the same sign at {float(a[i])!r} and {float(b[i])!r}")
    guesses = np.broadcast_to(np.asarray(guess, dtype=float), a.shape).tolist()
    brackets = [
        _Bracket(int(i), *map(float, (a[i], b[i], fa[i], fb[i])), guesses[i])
        for i in np.flatnonzero((fa != 0) & (fb != 0))
    ]
    root = np.where(fa == 0, a, b)
    while walks := [w for w in brackets if w.root is None and w.steps < _MAXITER]:
        points = [w.path(xtol) for w in walks]
        rows = np.repeat([w.index for w in walks], [len(x) for x in points])
        values = iter(np.asarray(f(np.concatenate(points), rows), dtype=float).tolist())
        for w, x in zip(walks, points):
            # zip takes len(x) values, the bracket's own, and no more.
            w.walk(dict(zip(x, values)), xtol)
    for w in brackets:
        if w.root is None:
            raise EntswapError(
                f"bisection did not converge in {_MAXITER} iterations, "
                f"bracket [{w.a!r}, {w.b!r}]"
            )
        root[w.index], a[w.index], b[w.index], fa[w.index], fb[w.index] = (
            w.root, w.a, w.b, w.fa, w.fb
        )
    return Bisection(root, a, b, fa, fb)


class _Bracket:
    """One open bracket of ``bisect``, in Python floats: its ends and their
    values, the value at the first end, dm, the steps taken, the root
    estimate r, and the root once the steps stop."""

    def __init__(self, index: int, a: float, b: float, fa: float, fb: float, guess: float):
        self.index, self.a, self.b, self.fa, self.fb = index, a, b, fa, fb
        self.f_start, self.dm, self.steps, self.root = fa, b - a, 0, None
        self.estimate = _estimate(a, b, guess if guess == guess else _regula_falsi(a, b, fa, fb))

    def path(self, xtol: float) -> list[float]:
        """The points of the next call: the midpoints the steps take if the
        root is at r, where a moves to a midpoint on the first end's side of
        r, down to the first midpoint x where |dm| < xtol + 4 eps |x| or
        the steps run out."""
        points, start, dm, r = [], self.a, self.dm, self.estimate
        for _ in range(_MAXITER - self.steps):
            dm *= 0.5
            x = start + dm
            points.append(x)
            if abs(dm) < xtol + _RTOL * abs(x):
                break
            if r >= x if dm > 0 else r <= x:
                start = x
        return points

    def walk(self, values: dict[float, float], xtol: float) -> None:
        """Take the steps while the next midpoint is a key of ``values``,
        which maps this call's points of the bracket to f, until the root."""
        while (x := self.a + self.dm * 0.5) in values:
            v = values[x]
            if v != v:
                raise EntswapError(f"the function value at x={x!r} is NaN")
            # Signs, not the product v * f_start, which can underflow to 0.
            if v == 0 or (v > 0) == (self.f_start > 0):
                self.a, self.fa = x, v
            else:
                self.b, self.fb = x, v
            self.dm, self.steps = self.dm * 0.5, self.steps + 1
            if v == 0 or abs(self.dm) < xtol + _RTOL * abs(x):
                self.root = x
                return
        self.estimate = _estimate(self.a, self.b, _regula_falsi(self.a, self.b, self.fa, self.fb))


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


def _not_nan(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    for i in np.flatnonzero(np.isnan(values)):
        raise EntswapError(f"the function value at x={float(x[i])!r} is NaN")
    return values


# The exact identities of a swap outcome with effect E, in the order
# ``_check_identities`` checks them.
_IDENTITIES = (
    "probability deviates from tr(E)/4",
    "(1,4) state deviates from conj(E)/tr(E)",
    "qubit-1 marginal of (1,2) deviates from that of (1,4)",
    "qubit-4 marginal of (3,4) deviates from that of (1,4)",
)


def _check_identities(lams, effects, probabilities, states) -> None:
    """Raise unless every non-degenerate outcome of ``swap_stack(effects)``,
    effects of shape (n, k, 4, 4) at the n lambdas ``lams``, meets the exact
    identities of the swap within VERIFY_TOL.

    Both pairs start maximally entangled, so effect E has probability
    tr(E)/4 and (1,4) state conj(E)/tr(E), as ``rho14_spectral`` computes,
    and the three pair states are marginals of one four-qubit state: the
    (1,2) and (1,4) states share the state of qubit 1, the (3,4) and (1,4)
    states that of qubit 4. The error names the first failing outcome, in
    row order, by lambda and index, then the identity and its deviation.
    """
    kept = probabilities >= DEGENERATE_PROBABILITY
    effects, states = effects[kept], states[kept]
    trace = np.trace(effects, axis1=-2, axis2=-1).real
    rho14 = states[:, 0]
    # The (1,2) and (3,4) states less the (1,4) state; qubit 1 is the first
    # qubit of (1,2) and (1,4), qubit 4 the second of (3,4) and (1,4).
    d = states[:, 1:] - rho14[:, None]
    m = len(trace)
    residuals = np.abs(np.concatenate([
        (probabilities[kept] - trace / 4)[:, None],
        (rho14 - effects.conj() / trace[:, None, None]).reshape(m, 16),
        (d[:, 0, ::2, ::2] + d[:, 0, 1::2, 1::2]).reshape(m, 4),
        (d[:, 1, :2, :2] + d[:, 1, 2:, 2:]).reshape(m, 4),
    ], axis=1))
    if residuals.max(initial=0.0) <= VERIFY_TOL:  # False for NaN
        return
    # The first column of each identity in ``residuals``.
    deviations = np.maximum.reduceat(residuals, [0, 1, 17, 21], axis=1)
    row, identity = np.argwhere(~(deviations <= VERIFY_TOL))[0]
    i, j = np.argwhere(kept)[row]
    raise EntswapError(
        f"lambda={float(lams[i]):.12g}: outcome {j + 1}: {_IDENTITIES[identity]} "
        f"by {deviations[row, identity]:.3e}"
    )


def _signed_values(family: _Family, lams, pairs, columns) -> np.ndarray:
    """Signed quantities of outcome 1 at each lambda, on the batched engine.

    Row i reads pair PAIRS[pairs[i]] and measure MEASURES[columns[i]]. Every
    non-degenerate row must meet the exact identities of the swap
    (``_check_identities``). A degenerate outcome or a state the stacked
    checks reject goes to ``_signed_pair_value``, which raises its error or
    gives the value.
    """
    effects = _grid_effects(family, lams)[:, :1]
    probabilities, states = swap_stack(effects)
    _check_identities(lams, effects, probabilities, states)
    rows = np.arange(lams.size)
    neg, n, s3, _, _, ok = measures._signed_stack(states[rows, 0, pairs])
    values = np.stack([neg, n, s3, n])[columns, rows]
    ok &= probabilities[:, 0] >= DEGENERATE_PROBABILITY
    for i in np.flatnonzero(~ok):
        lam, pair, measure = float(lams[i]), PAIRS[pairs[i]], MEASURES[columns[i]]
        with _at_lambda(lam):
            values[i] = _signed_pair_value(family.povm, lam, pair, measure)
    return values


def _bisect_signed(family: _Family, queries: list[tuple], tol: float) -> list[float]:
    """Bisect, on the batched engine, where each query's signed measure of
    outcome 1 crosses its offset; a query is (pair, measure, lo, hi, offset).

    The probes of every bracket are its ends and the 15 midpoints of the
    first four levels of ``bisect`` (``_probes``); they are one stacked
    engine call, as is each call of ``bisect`` over the open brackets,
    which gets the probe values back without evaluating them again. A
    bracket whose ends lie on the same side of the offset raises, in query
    order; one whose 17 probes, ordered from lo to hi, are not monotone
    warns. The first root estimate of each bracket comes from the probes
    about its first sign change (``_first_estimate``). Every engine point
    meets the exact identities of the swap (see ``_signed_values``), and at
    the first end of the first query's final bracket the scalar pipeline
    must give the engine's signed value within VERIFY_TOL: one ``run_swap``
    per call.
    """
    pairs = np.array([PAIRS.index(q[0]) for q in queries])
    columns = np.array([MEASURES.index(q[1]) for q in queries])
    lo, hi, offsets = (np.array([q[k] for q in queries], dtype=float) for k in (2, 3, 4))

    # Every (query, lambda) reaches the engine once: f evaluates only the
    # points it has not seen and reads the others back.
    known: dict[tuple[int, float], float] = {}

    def f(lams, rows):
        keys = list(zip(rows.tolist(), lams.tolist()))
        new = list(dict.fromkeys(key for key in keys if key not in known))
        if new:
            at, points = (np.array(v) for v in zip(*new))
            values = _signed_values(family, points, pairs[at], columns[at]) - offsets[at]
            known.update(zip(new, values.tolist()))
        return [known[key] for key in keys]

    probes = [_probes(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    rows = np.repeat(np.arange(len(queries)), [len(p) for p in probes])
    values = np.array(f(np.concatenate(probes), rows)).reshape(len(queries), -1)
    for (pair, measure, _, _, offset), (f_lo, f_hi) in zip(queries, values[:, [0, -1]]):
        if (f_lo > 0.0) == (f_hi > 0.0):
            raise NoBracketError(
                f"{measure} of pair {pair} classifies identically at both ends "
                f"({f_lo + offset:.3e} and {f_hi + offset:.3e})"
            )
    steps = np.diff(values, axis=-1)
    monotone = np.all(steps >= -1e-12, axis=-1) | np.all(steps <= 1e-12, axis=-1)
    for (pair, measure, a, b, _), ok in zip(queries, monotone):
        if not ok:
            warnings.warn(
                f"{measure} of pair {pair} is not monotone on [{a:g}, {b:g}]",
                NonMonotoneWarning,
                stacklevel=3,
            )

    # The first probe on the other side of the offset (or on it).
    signs = np.sign(values)
    crossings = (np.argmax(signs[:, 1:] * signs[:, :1] <= 0.0, axis=-1) + 1).tolist()
    guess = [_first_estimate(*args) for args in zip(probes, values.tolist(), crossings)]
    result = bisect(f, lo, hi, values[:, 0], values[:, -1], tol, guess)
    pair, measure, _, _, offset = queries[0]
    lam = float(result.a[0])
    with _at_lambda(lam):
        scalar = _signed_pair_value(family.povm, lam, pair, measure)
        _compare(1, [(f"pair {pair} {measure}", result.fa[0] + offset, scalar)])
    return result.root.tolist()


# Probes about a sign change that the first root estimate interpolates.
_INTERPOLATED = 8


def _first_estimate(lams: list[float], values: list[float], k: int) -> float:
    """A root estimate between the probes lams[k - 1] and lams[k], where
    ``values`` changes sign: the inverse Lagrange interpolant at 0 through
    the _INTERPOLATED probes centred on them if their values are strictly
    monotone, else regula falsi between the two, clipped into [lams[k - 1],
    lams[k]], or its midpoint if NaN."""
    first = min(max(k - _INTERPOLATED // 2, 0), len(lams) - _INTERPOLATED)
    xs = lams[first:first + _INTERPOLATED]
    ys = values[first:first + _INTERPOLATED]
    steps = [v - u for u, v in zip(ys, ys[1:])]
    if all(d > 0 for d in steps) or all(d < 0 for d in steps):
        estimate = 0.0
        for i, (x, y) in enumerate(zip(xs, ys)):
            for j, other in enumerate(ys):
                if j != i:
                    x *= other / (other - y)
            estimate += x
    else:
        estimate = _regula_falsi(lams[k - 1], lams[k], values[k - 1], values[k])
    return _estimate(lams[k - 1], lams[k], estimate)


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
    bit, but evaluates on the batched engine, in stacked calls that take at
    least one step each, and all of them when the root estimate is close
    (see ``bisect``). Every engine point is checked against the exact
    identities of the swap, and one ``run_swap`` checks the first end of the
    final bracket.
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
    return ThresholdResult(
        measure=measure, pair=pair, bracket=(lo, hi), root=root, achieved_tol=tol
    )


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

    kinds: dict[tuple[str, str], str] = {}
    queries: list[tuple] = []  # (pair, measure, lo, hi, offset) of each interval end
    shared: dict[tuple, int] = {}  # (pair, signed function, lo, hi, offset) -> query
    rows: dict[tuple[str, str], int] = {}  # key -> its query
    for key in [(pair, measure) for pair in PAIRS for measure in MEASURES]:
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
            lo, hi = float(lams[i]), float(lams[i + 1])
            kinds[key] = "above" if positive[-1] else "below"
            # The zero crossing where the end classified not positive is
            # clamped to 0, else the crossing of tol that the grid saw.
            offset = 0.0 if column[i + 1 if positive[i] else i] == 0.0 else tol
            # Measures with one signed function (steering2, nonlocality) share a root.
            rows[key] = shared.setdefault((pair, _SIGNED[measure], lo, hi, offset), len(queries))
            if rows[key] == len(queries):
                queries.append((pair, measure, lo, hi, offset))
    roots = _bisect_signed(family, queries, root_tol) if queries else []
    return {
        key: MeasureRange(kind, threshold=roots[rows[key]] if key in rows else None)
        for key, kind in kinds.items()
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
    if not isinstance(case, str) or case not in ("I", "II", "III", "IV"):
        raise BadParamError(f"verification needs a preset case, got {case!r}")
    grid = _grid_points(grid)
    family = _family(case, x)
    tol = 1e-9  # report()'s default classification tolerance
    worst = _worst_deviation(
        grid, *_grid_values(family, grid, tol), _closed_form_values(family, grid, tol)
    )
    return VerificationReport(case, family.x, len(grid), *worst, passed=worst[0] < VERIFY_TOL)

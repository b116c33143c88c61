"""The generalized entanglement-swapping engine.

Two Bell pairs (1,2) and (3,4) start in the same maximally entangled state.
A four-outcome POVM is measured on the middle pair (2,3) and the state is
updated with the square-root (Lueders) rule, conditioning on the outcome.
``run_swap`` returns, per outcome, the probability and the conditional
two-qubit states of the pairs (1,4), (1,2) and (3,4). It runs all outcomes
of one POVM through the full 16-dimensional pipeline as one stack.
``swap_stack`` computes the same for a stack of effect lists at once, without
16x16 matrices, from the eigensolve that checks them; ``run_swap``
does not use it, so each checks the other. ``swap_stack`` also returns which
outcomes it kept (not degenerate), so that its callers do not decide it again.

The module also carries the closed forms for the two built-in measurement
families. They are exact and serve as independent oracles for the full
16-dimensional pipeline. ``_closed_form_core`` computes them at one (x,
lambda) in Python floats, with ``povm._asymmetric_parameters``; the public
``case1_closed_forms`` and ``case2_closed_forms`` wrap it in their objects,
and ``analysis`` reads it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEffectError, InvalidPovmError, check_choice, check_unit
from .linalg import _root, freeze, partial_trace, psd_sqrt
from .measures import CorrelationReport
from .povm import (
    _PARAMETERS, DEGENERATE_PROBABILITY, AsymmetricPovmParams, Povm, _asymmetric_parameters,
    _residuals, unit_trace_effect, validate,
)
from .states import DensityMatrix, check_density_matrix, initial_four_qubit

PAIRS = ("14", "12", "34")

_I2 = np.eye(2, dtype=complex)

# Qubits kept by each pair state, in PAIRS order.
_PAIR_QUBITS = ((1, 4), (1, 2), (3, 4))


@dataclass(frozen=True)
class SwapOutcome:
    """One measurement outcome with its conditional pair states.

    ``rho14``, ``rho12`` and ``rho34`` are None when the outcome is
    degenerate (probability below DEGENERATE_PROBABILITY).
    """

    outcome_index: int
    probability: float
    rho14: DensityMatrix | None
    rho12: DensityMatrix | None
    rho34: DensityMatrix | None
    degenerate: bool = False

    def pair_state(self, pair: str) -> DensityMatrix:
        check_choice("pair", pair, PAIRS)
        state = getattr(self, f"rho{pair}")
        if state is None:
            raise DegenerateEffectError(
                f"outcome {self.outcome_index} is degenerate "
                f"(probability {self.probability:.3e})"
            )
        return state


def run_swap(p: Povm) -> list[SwapOutcome]:
    """Run the protocol for every outcome of a valid POVM.

    For each effect E the four-qubit state is updated with
    K = I x sqrt(E) x I acting on qubits (2,3), the outcome probability is
    the trace of K rho K-dagger, and the conditional pair states are the
    normalized partial traces onto (1,4), (1,2) and (3,4). All outcomes go
    through each step as one stack of 16x16 matrices, and all pair states
    through one ``check_density_matrix`` call. The pair states of the
    outcomes are views of that one checked stack, frozen with ``freeze``.
    """
    problems = validate(p)
    if problems:
        raise InvalidPovmError("; ".join(problems), problems)
    roots = psd_sqrt(np.array(p.effects)).reshape(-1, 2, 2, 2, 2)
    # K[(a, b, c, d), (e, f, g, h)] = I[a, e] sqrt(E)[(b, c), (f, g)] I[d, h].
    k = np.einsum("ae,nbcfg,dh->nabcdefgh", _I2, roots, _I2).reshape(-1, 16, 16)
    joint = k @ initial_four_qubit().matrix @ k.conj().swapaxes(-1, -2)
    probabilities = np.trace(joint, axis1=-2, axis2=-1).real
    kept = probabilities >= DEGENERATE_PROBABILITY
    conditional = joint[kept] / probabilities[kept, None, None]
    states = check_density_matrix(
        np.stack([partial_trace(conditional, 4, pair) for pair in _PAIR_QUBITS], axis=1), 2
    )
    pair_states = iter(freeze(states))
    outcomes = []
    rows = zip(probabilities.tolist(), kept.tolist())
    for index, (probability, keep) in enumerate(rows, start=1):
        if not keep:
            outcomes.append(SwapOutcome(index, probability, None, None, None, degenerate=True))
            continue
        rho14, rho12, rho34 = (DensityMatrix._checked(2, m) for m in next(pair_states))
        outcomes.append(SwapOutcome(index, probability, rho14, rho12, rho34))
    return outcomes


# Qubits kept by each pair state, in PAIRS order, as axes of the amplitude
# tensor of swap_stack, whose axes are the qubits (2, 3, 1, 4).
_PAIR_AXES = ((2, 3), (2, 0), (1, 3))


def swap_stack(effects, outcomes: int | None = None) -> tuple[np.ndarray, ...]:
    """``run_swap`` for a stack of effect lists, shape (..., k, 4, 4).

    Returns ``ok``, shape (...), True where ``validate`` passes a list; the
    probabilities and pair states (PAIRS order) of its first ``outcomes``
    outcomes (all k if None), shapes (..., outcomes) and (..., outcomes, 3,
    4, 4); and ``kept``, shape (..., outcomes), False for the degenerate
    outcomes (probability below DEGENERATE_PROBABILITY), which ``run_swap``
    marks ``degenerate``. Those get zero states, and lists that are not ok
    zero roots, so zero values. The eigensolve that checks the effects
    (``povm._residuals``) gives the roots: ``eigh`` on the first ``outcomes``
    effects of each list, ``eigvalsh`` on the rest, so no effect is solved twice.

    Both pairs start in (|00> + |11>)/sqrt2, so after K = I x sqrt(E) x I
    the four-qubit state is pure with amplitudes
    psi[a, b, c, d] = sqrt(E)[(b, c), (a, d)] / 2. Each pair state is
    M M-dagger / probability, where M is psi with the pair's qubits as rows.
    """
    *_, ok, values, vectors = _residuals(effects, outcomes)
    s = np.zeros_like(vectors)
    s[ok] = _root(values[ok, :outcomes], vectors[ok])
    lead = s.shape[:-2]
    psi = s.reshape(*lead, 2, 2, 2, 2) / 2.0  # axes: qubits 2, 3, 1, 4
    batch = tuple(range(len(lead)))
    raw = []
    for rows in _PAIR_AXES:
        columns = tuple(q for q in range(4) if q not in rows)
        m = psi.transpose(*batch, *(len(lead) + q for q in rows + columns))
        m = m.reshape(*lead, 4, 4)
        raw.append(m @ m.conj().swapaxes(-1, -2))
    raw = np.stack(raw, axis=-3)
    probability = np.trace(raw[..., 0, :, :], axis1=-2, axis2=-1).real
    kept = probability >= DEGENERATE_PROBABILITY
    scale, where = probability[..., None, None, None], kept[..., None, None, None]
    states = np.divide(raw, scale, out=np.zeros_like(raw), where=where)
    return ok, probability, states, kept


def rho14_spectral(p: Povm, i: int) -> DensityMatrix:
    """Conditional (1,4) state without running the pipeline.

    Because both pairs start maximally entangled, the (1,4) state for
    outcome i is the entrywise complex conjugate of effect i divided by its
    trace. ``run_swap`` reproduces this to machine precision. Raises
    DegenerateEffectError for the outcomes ``run_swap`` marks degenerate.
    """
    return DensityMatrix(2, unit_trace_effect(p, i).conj())


def _strength(lam: float) -> float:
    """s(lam) of ``s_of_lambda`` at a checked lam, as a Python float."""
    return 0.5 * (1.0 - lam + math.sqrt((1.0 - lam) * (1.0 + 3.0 * lam)))


def s_of_lambda(lam: float) -> float:
    """Residual correlation strength of the pairs (1,2) and (3,4).

    After the Bell-projector family at sharpness lam, those pairs are left
    in the lam-independent-of-outcome mixed state of strength
    s = (1 - lam + sqrt((1 - lam)(1 + 3 lam)))/2, which falls from 1 at
    lam = 0 to 0 at lam = 1.
    """
    return np.float64(_strength(check_unit("sharpness", lam)))


def _eigenvalue_sums(t) -> tuple[float, float]:
    """M and Lambda3 of the T^T T eigenvalues t: the sum of the two largest and of all three."""
    t = sorted(t, reverse=True)
    return t[0] + t[1], t[0] + t[1] + t[2]


# One pair's closed forms: its signed negativity and T^T T eigenvalue triple.
_PairForms = tuple[float, tuple[float, float, float]]


def _werner(w: float) -> _PairForms:
    # Strength w: signed negativity (3w - 1)/2, and T^T T has the triple (w^2, w^2, w^2).
    return (3.0 * w - 1.0) / 2.0, (w * w,) * 3


def _asymmetric_pairs(x: float, parameters) -> tuple[_PairForms, ...]:
    """Each pair's signed negativity and T^T T triple, in PAIRS order, from
    the ``povm._PARAMETERS`` of the asymmetric family at x."""
    y1, y2, _, _, a, b, e, f, g, h, q, r = parameters
    t14_pair = (2.0 * a * b * (y2 * x + y1 * (2.0 * x - 1.0)) / (y1 + y2)) ** 2
    t14_last = ((y1 + y2 * (2.0 * x - 1.0)) / (y1 + y2)) ** 2
    t_shared = (e * e + f * f + g * g - 2.0 * h * h) ** 2
    t12_pair, t34_pair = 4.0 * e * e * f * f, 4.0 * e * e * g * g
    return (
        (math.sqrt(4.0 * q * q + r * r) - r, (t14_pair, t14_pair, t14_last)),
        (2.0 * (e * f - h * h), (t12_pair, t12_pair, t_shared)),
        (2.0 * (e * g - h * h), (t34_pair, t34_pair, t_shared)),
    )


def _closed_form_core(x: float | None, lam: float) -> tuple[_PairForms, ...]:
    """The closed forms at one (x, lam) in [0, 1], not checked: each pair's
    signed negativity and T^T T eigenvalue triple, in PAIRS order, as Python
    floats. x None is the Bell-projector family, any other x the asymmetric
    family at x. The public closed forms, the bisection's root prediction and
    ``analysis._closed_form_values`` all read it."""
    if x is None:
        s = _werner(_strength(lam))
        return _werner(lam), s, s
    return _asymmetric_pairs(x, _asymmetric_parameters(x, lam))


@dataclass(frozen=True)
class Case1ClosedForms:
    """Exact measures for the Bell-projector family at one sharpness.

    Pair (1,4) carries strength lam, pairs (1,2) and (3,4) both carry
    strength s(lam); all values are clamped at zero from below.
    """

    lam: float
    s: float
    negativity_14: float
    steering3_14: float
    nonlocality_14: float
    negativity_12: float
    steering3_12: float
    nonlocality_12: float

    # Pair (3,4) equals pair (1,2) for this family.
    @property
    def negativity_34(self) -> float:
        return self.negativity_12

    @property
    def steering3_34(self) -> float:
        return self.steering3_12

    @property
    def nonlocality_34(self) -> float:
        return self.nonlocality_12

    def quantities(self, pair: str) -> tuple[float, float, float]:
        """The signed negativity, M and Lambda3 of a pair state."""
        check_choice("pair", pair, PAIRS)
        negativity, t = _werner(self.lam if pair == "14" else self.s)
        return (negativity, *_eigenvalue_sums(t))

    def report(self, pair: str, tol: float = 1e-9) -> CorrelationReport:
        return CorrelationReport.from_quantities(*self.quantities(pair), tol=tol)


def case1_closed_forms(lam: float) -> Case1ClosedForms:
    """All six closed-form measures of the Bell-projector family."""
    s = s_of_lambda(lam)
    r14, r12 = (CorrelationReport.from_quantities(n, *_eigenvalue_sums(t))
                for n, t in _closed_form_core(None, float(lam))[:2])
    return Case1ClosedForms(lam, s, r14.negativity, r14.S3, r14.N, r12.negativity, r12.S3, r12.N)


@dataclass(frozen=True)
class Case2ClosedForms:
    """Exact measures for the asymmetric family at one (x, lam).

    Negativities are stored as printed (they are nonnegative throughout the
    preset range); the t triples are the eigenvalues of T^T T for each pair,
    from which the steering and nonlocality quantifiers follow.
    """

    x: float
    lam: float
    params: AsymmetricPovmParams
    negativity_14: float
    negativity_12: float
    negativity_34: float
    t_14: tuple[float, float, float]
    t_12: tuple[float, float, float]
    t_34: tuple[float, float, float]

    def quantities(self, pair: str) -> tuple[float, float, float]:
        """The signed negativity, M and Lambda3 of a pair state."""
        check_choice("pair", pair, PAIRS)
        return (getattr(self, f"negativity_{pair}"), *_eigenvalue_sums(getattr(self, f"t_{pair}")))

    def report(self, pair: str, tol: float = 1e-9) -> CorrelationReport:
        return CorrelationReport.from_quantities(*self.quantities(pair), tol=tol)


def case2_closed_forms(x: float, lam: float) -> Case2ClosedForms:
    """Closed-form negativities and T^T T eigenvalue triples, all pairs."""
    p = AsymmetricPovmParams(x, lam)
    (n14, t14), (n12, t12), (n34, t34) = _asymmetric_pairs(
        float(x), [getattr(p, name) for name in _PARAMETERS]
    )
    # negativity_14 is a numpy float, and s_of_lambda's s too: public types.
    return Case2ClosedForms(x, lam, p, np.float64(n14), n12, n34, t14, t12, t34)

"""The generalized entanglement-swapping engine.

Two Bell pairs (1,2) and (3,4) start in the same maximally entangled state.
A four-outcome POVM is measured on the middle pair (2,3) and the state is
updated with the square-root (Lueders) rule, conditioning on the outcome.
``run_swap`` returns, per outcome, the probability and the conditional
two-qubit states of the pairs (1,4), (1,2) and (3,4). It runs all outcomes
of one POVM through the full 16-dimensional pipeline as one stack.
``swap_stack`` computes the same for a whole stack of effects at once,
without 16x16 matrices; ``run_swap`` does not use it, so each checks the
other.

The module also carries the closed forms for the two built-in measurement
families. They are exact and serve as independent oracles for the full
16-dimensional pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEffectError, InvalidPovmError, check_choice, check_unit
from .linalg import freeze, partial_trace, psd_sqrt
from .measures import CorrelationReport
from .povm import DEGENERATE_PROBABILITY, AsymmetricPovmParams, Povm, unit_trace_effect, validate
from .states import DensityMatrix, check_density_matrix, initial_four_qubit

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

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
    for index, probability in enumerate(probabilities.tolist(), start=1):
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append(
                SwapOutcome(index, probability, None, None, None, degenerate=True)
            )
            continue
        rho14, rho12, rho34 = (DensityMatrix._checked(2, m) for m in next(pair_states))
        outcomes.append(SwapOutcome(index, probability, rho14, rho12, rho34))
    return outcomes


# Qubits kept by each pair state, in PAIRS order, as axes of the amplitude
# tensor of swap_stack, whose axes are the qubits (2, 3, 1, 4).
_PAIR_AXES = ((2, 3), (2, 0), (1, 3))


def swap_stack(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``run_swap`` for a stack of valid effects, shape (..., 4, 4).

    Returns the outcome probabilities, shape (...), and the conditional
    states of the pairs in PAIRS order, shape (..., 3, 4, 4). States of
    degenerate outcomes (probability below DEGENERATE_PROBABILITY) are zero.
    The effects are not validated here; check them with ``povm.is_povm``.

    Both pairs start in (|00> + |11>)/sqrt2, so after K = I x sqrt(E) x I
    the four-qubit state is pure with amplitudes
    psi[a, b, c, d] = sqrt(E)[(b, c), (a, d)] / 2. Each pair state is
    M M-dagger / probability, where M is psi with the pair's qubits as rows.
    """
    s = psd_sqrt(effects)
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
    kept = (probability >= DEGENERATE_PROBABILITY)[..., None, None, None]
    states = np.divide(
        raw, probability[..., None, None, None], out=np.zeros_like(raw), where=kept
    )
    return probability, states


def rho14_spectral(p: Povm, i: int) -> DensityMatrix:
    """Conditional (1,4) state without running the pipeline.

    Because both pairs start maximally entangled, the (1,4) state for
    outcome i is the entrywise complex conjugate of effect i divided by its
    trace. ``run_swap`` reproduces this to machine precision. Raises
    DegenerateEffectError for the outcomes ``run_swap`` marks degenerate.
    """
    return DensityMatrix(2, unit_trace_effect(p, i).conj())


def s_of_lambda(lam: float) -> float:
    """Residual correlation strength of the pairs (1,2) and (3,4).

    After the Bell-projector family at sharpness lam, those pairs are left
    in the lam-independent-of-outcome mixed state of strength
    s = (1 - lam + sqrt((1 - lam)(1 + 3 lam)))/2, which falls from 1 at
    lam = 0 to 0 at lam = 1.
    """
    check_unit("sharpness", lam)
    return 0.5 * (1.0 - lam + np.sqrt((1.0 - lam) * (1.0 + 3.0 * lam)))


def _werner_measures(strength: float) -> tuple[float, float, float]:
    negativity = max(0.0, (3.0 * strength - 1.0) / 2.0)
    steering = max(0.0, (_SQRT3 * strength - 1.0) / (_SQRT3 - 1.0))
    nonlocality = max(0.0, (_SQRT2 * strength - 1.0) / (_SQRT2 - 1.0))
    return negativity, steering, nonlocality


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

    def report(self, pair: str, tol: float = 1e-9) -> CorrelationReport:
        check_choice("pair", pair, PAIRS)
        strength = self.lam if pair == "14" else self.s
        negativity = self.negativity_14 if pair == "14" else self.negativity_12
        # T^T T has the triple (w^2, w^2, w^2) at strength w.
        w2 = strength * strength
        return CorrelationReport.from_quantities(negativity, 2.0 * w2, 3.0 * w2, tol=tol)


def case1_closed_forms(lam: float) -> Case1ClosedForms:
    """All six closed-form measures of the Bell-projector family."""
    s = s_of_lambda(lam)
    e14, s14, n14 = _werner_measures(lam)
    e12, s12, n12 = _werner_measures(s)
    return Case1ClosedForms(
        lam=lam,
        s=s,
        negativity_14=e14,
        steering3_14=s14,
        nonlocality_14=n14,
        negativity_12=e12,
        steering3_12=s12,
        nonlocality_12=n12,
    )


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

    def report(self, pair: str, tol: float = 1e-9) -> CorrelationReport:
        check_choice("pair", pair, PAIRS)
        negativity = getattr(self, f"negativity_{pair}")
        t = sorted(getattr(self, f"t_{pair}"), reverse=True)
        return CorrelationReport.from_quantities(
            max(0.0, negativity), t[0] + t[1], sum(t), tol=tol
        )


def case2_closed_forms(x: float, lam: float) -> Case2ClosedForms:
    """Closed-form negativities and T^T T eigenvalue triples, all pairs."""
    p = AsymmetricPovmParams(x, lam)
    e, f, g, h = p.e, p.f, p.g, p.h
    t14_pair = (2.0 * p.a * p.b * (p.y2 * x + p.y1 * (2.0 * x - 1.0)) / (p.y1 + p.y2)) ** 2
    t14_last = ((p.y1 + p.y2 * (2.0 * x - 1.0)) / (p.y1 + p.y2)) ** 2
    t_shared = (e * e + f * f + g * g - 2.0 * h * h) ** 2
    return Case2ClosedForms(
        x=x,
        lam=lam,
        params=p,
        negativity_14=np.sqrt(4.0 * p.q * p.q + p.r * p.r) - p.r,
        negativity_12=2.0 * (e * f - h * h),
        negativity_34=2.0 * (e * g - h * h),
        t_14=(t14_pair, t14_pair, t14_last),
        t_12=(4.0 * e * e * f * f, 4.0 * e * e * f * f, t_shared),
        t_34=(4.0 * e * e * g * g, 4.0 * e * e * g * g, t_shared),
    )

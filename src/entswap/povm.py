"""POVM representation, validation, and the two measurement families.

A POVM is an ordered list of PSD effects summing to the identity. Both
builders here produce four two-qubit effects of unit trace, so in the
swapping protocol every outcome occurs with probability 1/4. The scalar
builders are one-point views of the array builders, and ``validate`` and
``swap.swap_stack`` read the same stacked ``_residuals``, which solves each
effect once, for eigenvectors only where ``swap_stack`` roots it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateEffectError,
    InvalidPovmError,
    check_index,
    check_unit,
    check_unit_array,
    complex_array,
)
from .linalg import freeze, invariant_residuals
from .states import bell_state, lambda_amplitudes, lambda_basis_rows, product_basis

# Per-effect eigenvalue window and completeness tolerance.
POVM_ATOL = 1e-10

# Outcomes below this probability carry no conditional states: normalizing
# by a vanishing trace would just amplify rounding noise.
DEGENERATE_PROBABILITY = 1e-12


@dataclass(frozen=True)
class Povm:
    """Ordered effects with a human-readable label.

    Construction enforces only the structure (a label that is UTF-8 text,
    at least one 4x4 complex matrix); the mathematical invariants are
    checked by ``validate`` so that ill-formed candidates can be diagnosed
    rather than rejected outright.
    """

    effects: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise InvalidPovmError("'label' must be a string")
        try:
            self.label.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, which JSON can escape
            raise InvalidPovmError(
                f"'label' must be UTF-8 text: {exc.reason} at index {exc.start}"
            ) from None
        try:
            count = len(self.effects)
        except TypeError:  # no sequence: an int, None, a 0-d array
            got = self.effects
            raise InvalidPovmError(f"effects must be a sequence of matrices, got {got!r}") from None
        if count < 1:
            raise InvalidPovmError("a POVM needs at least one effect")
        effects = [complex_array(effect, InvalidPovmError) for effect in self.effects]
        for i, m in enumerate(effects, start=1):
            if m.shape != (4, 4):
                raise InvalidPovmError(f"effect {i}: expected a 4x4 matrix, got shape {m.shape}")
        object.__setattr__(self, "effects", tuple(freeze(np.array(effects))))

    def __reduce__(self):
        # Pickles and copies are rebuilt by the initializer, with frozen effects.
        return type(self), (self.effects, self.label)

    def __len__(self) -> int:
        return len(self.effects)

    def violations(self) -> list[str]:
        return validate(self)


def _residuals(effects, rooted: int | None) -> tuple[np.ndarray, ...]:
    """Per effect of a (..., k, 4, 4) stack: finite or not, the Hermitian residual, the
    extreme eigenvalues and whether all pass; per list: the completeness residual and
    whether ``validate`` passes it; then the eigenvalues, shape (..., k, 4), and the
    eigenvectors of the first ``rooted`` effects of each list (all k if None), shape
    (..., rooted, 4, 4): those a square root is taken of.

    Each effect is solved once: by ``eigh`` if it is rooted, else by ``eigvalsh``,
    whose eigenvalues may differ from those of ``eigh`` in the last bits."""
    e = complex_array(effects, InvalidPovmError)
    finite, _, herm, sym = invariant_residuals(e)
    k = sym.shape[-3]
    rooted = k if rooted is None else rooted
    eigs = np.empty(sym.shape[:-1])
    vectors = np.empty_like(sym[..., :rooted, :, :])
    if rooted:
        eigs[..., :rooted, :], vectors[...] = np.linalg.eigh(sym[..., :rooted, :, :])
    if rooted < k:
        eigs[..., rooted:, :] = np.linalg.eigvalsh(sym[..., rooted:, :, :])
    low, high = eigs[..., 0], eigs[..., -1]
    ok = finite & (herm <= POVM_ATOL) & (low >= -POVM_ATOL) & (high <= 1.0 + POVM_ATOL)
    # The raw sum is NaN for a NaN entry, which gets no completeness message,
    # and inf beyond float range.
    with np.errstate(over="ignore"):
        completeness = np.abs(e.sum(axis=-3) - np.eye(4)).max(axis=(-2, -1))
    valid = ok.all(axis=-1) & (completeness <= POVM_ATOL)
    return finite, herm, low, high, ok, completeness, valid, eigs, vectors


def _check_povm(p) -> None:
    """Raise InvalidPovmError unless ``p`` is a Povm."""
    if not isinstance(p, Povm):
        raise InvalidPovmError(f"expected a Povm, got {type(p).__name__}")


def validate(p: Povm) -> list[str]:
    """Check the POVM invariants, returning a list of violation messages.

    An empty list means the POVM is valid. Each message names the effect
    index (1-based), the failed check, and the measured residual. An
    argument that is no Povm raises InvalidPovmError.
    """
    _check_povm(p)
    finite, herm, low, high, ok, completeness, *_ = _residuals(p.effects, 0)
    out: list[str] = []
    for i in np.flatnonzero(~ok):
        if not finite[i]:
            out.append(f"effect {i + 1}: non-finite entry")
        elif herm[i] > POVM_ATOL:
            out.append(f"effect {i + 1}: not Hermitian, residual {herm[i]:.3e}")
        elif not np.isfinite([low[i], high[i]]).all():
            # The other eigenvalues are then rounding noise of that size.
            out.append(f"effect {i + 1}: eigenvalue beyond float range")
        else:
            if low[i] < -POVM_ATOL:
                out.append(f"effect {i + 1}: negative eigenvalue {low[i]:.3e}")
            if high[i] > 1.0 + POVM_ATOL:
                out.append(f"effect {i + 1}: eigenvalue {high[i]:.12g} exceeds 1")
    if completeness > POVM_ATOL:
        out.append(f"completeness: effects sum deviates from identity by {completeness:.3e}")
    return out


_BELL_PROJECTORS = np.array([np.outer(bell_state(k), bell_state(k).conj()) for k in (1, 2, 3, 4)])


def werner_bell_effects(lams) -> np.ndarray:
    """Effects of ``werner_bell_povm`` for every sharpness in ``lams``, shape (n, 4, 4, 4)."""
    lam = check_unit_array("sharpness", lams)[:, None, None, None]
    return lam * _BELL_PROJECTORS + (1.0 - lam) / 4.0 * np.eye(4)


def werner_bell_povm(lam: float) -> Povm:
    """Four Bell projectors smeared with white noise of strength 1 - lam.

    Effect i is lam |b_i><b_i| + (1-lam)/4 * I. The measurement is projective
    at lam = 1 and trivial at lam = 0. This is the one-point view of
    ``werner_bell_effects``, with lam checked as one number.
    """
    effects = werner_bell_effects([check_unit("sharpness", lam)])[0]
    return Povm(tuple(effects), label=f"werner-bell(lam={lam:g})")


def _asymmetric_weights(x, lam):
    """(y1, y2, w1, w2) of the asymmetric family; elementwise on arrays."""
    y1 = (2.0 + 2.0 * np.sqrt(1.0 - lam) - lam) / 4.0
    y2 = lam / 4.0
    w1 = y1 * (1.0 - x) / (y1 + y2)
    w2 = y2 * (1.0 - x) / (y1 + y2)
    return y1, y2, w1, w2


# The derived fields of ``AsymmetricPovmParams``, as ``_asymmetric_parameters`` orders them.
_PARAMETERS = ("y1", "y2", "w1", "w2", "a", "b", "e", "f", "g", "h", "q", "r")


def _asymmetric_parameters(x: float, lam: float) -> tuple[float, ...]:
    """The _PARAMETERS of the asymmetric family at one (x, lam) in [0, 1], as
    Python floats: ``_asymmetric_weights`` and ``lambda_amplitudes`` once
    each, ``math.sqrt`` for the rest."""
    y1, y2, w1, w2 = map(float, _asymmetric_weights(x, lam))
    a, b = map(float, lambda_amplitudes(lam))
    root_w1, root_x = math.sqrt(w1), math.sqrt(x)
    e = math.sqrt(w2)
    f = a * a * root_w1 + b * b * root_x
    g = b * b * root_w1 + a * a * root_x
    h = a * b * (root_w1 - root_x)
    q = a * b * (y1 * (1.0 - 2.0 * x) - x * y2) / (y1 + y2)
    return y1, y2, w1, w2, a, b, e, f, g, h, q, w2


@dataclass(frozen=True)
class AsymmetricPovmParams:
    """Derived quantities of the asymmetric family at a given (x, lam).

    y1, y2 set the mixing weights w1 = y1(1-x)/(y1+y2) and
    w2 = y2(1-x)/(y1+y2); a, b are the amplitudes of the lam-basis; e, f, g,
    h parameterize the conditional states on pairs (1,2) and (3,4); q, r
    parameterize the pair (1,4) negativity. The combination
    e^2 + f^2 + g^2 + 2 h^2 is identically 1. The fields come from
    ``_asymmetric_parameters``, which the closed forms of ``swap`` read too.
    """

    x: float
    lam: float
    y1: float = field(init=False)
    y2: float = field(init=False)
    w1: float = field(init=False)
    w2: float = field(init=False)
    a: float = field(init=False)
    b: float = field(init=False)
    e: float = field(init=False)
    f: float = field(init=False)
    g: float = field(init=False)
    h: float = field(init=False)
    q: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self) -> None:
        x, lam = check_unit("x", self.x), check_unit("sharpness", self.lam)
        # The fields at once, where the frozen class takes one __setattr__ each.
        vars(self).update(zip(_PARAMETERS, _asymmetric_parameters(x, lam)))


# Effect j mixes lam-basis member _MAIN[j] (weight x), its partner _PARTNER[j]
# in the same two-dimensional block (weight w1), and product vector
# _PRODUCT[j] (weight w2); indices are 0-based.
_MAIN, _PARTNER, _PRODUCT = np.array([(0, 1, 2), (1, 0, 3), (2, 3, 0), (3, 2, 1)]).T
_PRODUCT_PROJECTORS = np.array([np.outer(product_basis(k), product_basis(k)) for k in (1, 2, 3, 4)])


def asymmetric_effects(x: float, lams) -> np.ndarray:
    """Effects of ``asymmetric_povm(x, lam)`` for every lam in ``lams``, shape (n, 4, 4, 4)."""
    check_unit("x", x)
    lam = check_unit_array("sharpness", lams)
    _, _, w1, w2 = _asymmetric_weights(x, lam)
    basis = lambda_basis_rows(lam)
    projectors = basis[..., :, None] * basis[..., None, :]
    return (
        x * projectors[:, _MAIN]
        + w1[:, None, None, None] * projectors[:, _PARTNER]
        + w2[:, None, None, None] * _PRODUCT_PROJECTORS[_PRODUCT]
    )


def asymmetric_povm(x: float, lam: float) -> Povm:
    """The asymmetric four-outcome family at mixing weight x and sharpness lam.

    The three components of every effect are mutually orthogonal, so each
    effect has eigenvalues {x, w1, w2, 0}, and the four effects sum to the
    identity for every (x, lam). This is the one-point view of
    ``asymmetric_effects``, with lam checked as one number.
    """
    check_unit("x", x)
    effects = asymmetric_effects(x, [check_unit("sharpness", lam)])[0]
    return Povm(tuple(effects), label=f"asymmetric(x={x:g}, lam={lam:g})")


def unit_trace_effect(p: Povm, i: int) -> np.ndarray:
    """Effect i (1-based index) divided by its trace.

    Both pairs start maximally entangled, so outcome i has probability
    tr(E_i)/4; where that is below DEGENERATE_PROBABILITY, as for the
    outcomes ``swap.run_swap`` marks degenerate, this raises
    DegenerateEffectError. An effect with a non-finite entry raises
    InvalidPovmError, with the message ``validate`` gives it; so does an
    argument that is no Povm.
    """
    _check_povm(p)
    i = check_index("effect index", i, len(p.effects))
    effect = _finite_effect(p, i)
    with np.errstate(over="ignore"):  # a trace beyond float range is inf
        trace = float(np.trace(effect).real)
    if trace == math.inf:
        problem = f"effect {i}: trace beyond float range"
        raise InvalidPovmError(problem, [problem])
    if trace / 4 < DEGENERATE_PROBABILITY:
        raise DegenerateEffectError(f"effect {i} has trace {trace:.3e}")
    with np.errstate(over="ignore"):  # an entry beyond float range is inf, which no state has
        return effect / trace


def effect_entanglement(p: Povm, i: int) -> float:
    """Negativity of effect i normalized to unit trace (1-based index)."""
    from .measures import negativity

    return negativity(unit_trace_effect(p, i))


def povm_to_dict(p: Povm) -> dict:
    """Serialize to the JSON schema: entries as [re, im] pairs, row-major.

    In the effect's 4-dimensional index, the protocol's qubit 2 is the most
    significant bit and qubit 3 the least. An argument that is no Povm
    raises InvalidPovmError, as does an effect with a non-finite entry,
    which JSON cannot hold, with the message ``validate`` gives it.
    """
    _check_povm(p)
    return {
        "label": p.label,
        "effects": [
            [[[float(z.real), float(z.imag)] for z in row] for row in _finite_effect(p, i)]
            for i in range(1, len(p.effects) + 1)
        ],
    }


def _finite_effect(p: Povm, i: int) -> np.ndarray:
    """Effect i (1-based index) of ``p``; InvalidPovmError, with the message
    ``validate`` gives it, if an entry is not finite."""
    effect = p.effects[i - 1]
    if not np.isfinite(effect).all():
        problem = f"effect {i}: non-finite entry"
        raise InvalidPovmError(problem, [problem])
    return effect


def _is_finite_number(v) -> bool:
    # JSON booleans parse to bool, which is an int subclass; an int beyond
    # float range makes math.isfinite raise OverflowError.
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _effects(raw_effects: list) -> np.ndarray:
    """The (k, 4, 4) effects of the schema's ``effects`` array, each entry
    checked in document order, so InvalidPovmError names the first fault; the
    [re, im] pairs convert at once, ``view(complex)`` pairing them as ``complex`` does."""
    values = []
    for i, raw in enumerate(raw_effects, start=1):
        if not isinstance(raw, list) or len(raw) != 4:
            raise InvalidPovmError(f"effect {i}: expected 4 rows")
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 4:
                raise InvalidPovmError(f"effect {i}, row {r}: expected 4 entries")
            for c, entry in enumerate(row):
                # A JSON number with a point parses to a float: one type test passes it.
                if not (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and (type(x := entry[0]) is float and math.isfinite(x) or _is_finite_number(x))
                    and (type(y := entry[1]) is float and math.isfinite(y) or _is_finite_number(y))
                ):
                    raise InvalidPovmError(
                        f"effect {i}, row {r}, column {c}: "
                        "expected an [re, im] pair of finite numbers"
                    )
                values += entry
    return np.array(values, dtype=float).view(complex).reshape(-1, 4, 4)


def povm_from_dict(data: dict) -> Povm:
    """Parse the JSON schema produced by ``povm_to_dict``.

    Structural problems raise InvalidPovmError naming the effect index and
    matrix position; use ``validate`` afterwards for the POVM invariants.
    One walk over the effects checks them in document order, so the first
    fault is the one named, and converts them all at once (subclasses of
    list, int and float are accepted).
    """
    if not isinstance(data, dict):
        raise InvalidPovmError(f"expected a JSON object, got {type(data).__name__}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InvalidPovmError("'label' must be a string")
    raw_effects = data.get("effects")
    if not isinstance(raw_effects, list) or not raw_effects:
        raise InvalidPovmError("'effects' must be a non-empty array")
    return Povm(tuple(_effects(raw_effects)), label=label)

"""POVM representation, validation, and the two measurement families.

A POVM is an ordered list of PSD effects summing to the identity. Both
builders here produce four two-qubit effects of unit trace, so in the
swapping protocol every outcome occurs with probability 1/4. Each family
also has an array builder that returns the effects over a whole vector of
sharpness values at once, checked by the stacked ``is_povm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndexError, BadParamError, InvalidPovmError
from .states import bell_state, lambda_basis, product_basis

# Per-effect eigenvalue window and completeness tolerance.
POVM_ATOL = 1e-10


@dataclass(frozen=True)
class Povm:
    """Ordered effects with a human-readable label.

    Construction enforces only the structure (at least one 4x4 complex
    matrix); the mathematical invariants are checked by ``validate`` so that
    ill-formed candidates can be diagnosed rather than rejected outright.
    """

    effects: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.effects) < 1:
            raise InvalidPovmError("a POVM needs at least one effect")
        frozen = []
        for i, effect in enumerate(self.effects, start=1):
            m = np.asarray(effect, dtype=complex)
            if m.shape != (4, 4):
                raise InvalidPovmError(f"effect {i}: expected a 4x4 matrix, got shape {m.shape}")
            m = m.copy()
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "effects", tuple(frozen))

    def __len__(self) -> int:
        return len(self.effects)

    def violations(self) -> list[str]:
        return validate(self)


def validate(p: Povm) -> list[str]:
    """Check the POVM invariants, returning a list of violation messages.

    An empty list means the POVM is valid. Each message names the effect
    index (1-based), the failed check, and the measured residual.
    """
    out: list[str] = []
    finite = np.isfinite(p.effects).all(axis=(-2, -1))
    for i, (effect, effect_finite) in enumerate(zip(p.effects, finite), start=1):
        if not effect_finite:
            out.append(f"effect {i}: non-finite entry")
            continue
        herm = float(np.abs(effect - effect.conj().T).max())
        if herm > POVM_ATOL:
            out.append(f"effect {i}: not Hermitian, residual {herm:.3e}")
            continue
        eigs = np.linalg.eigvalsh((effect + effect.conj().T) / 2)
        if eigs.min() < -POVM_ATOL:
            out.append(f"effect {i}: negative eigenvalue {eigs.min():.3e}")
        if eigs.max() > 1.0 + POVM_ATOL:
            out.append(f"effect {i}: eigenvalue {eigs.max():.12g} exceeds 1")
    total = sum(p.effects)
    residual = float(np.abs(total - np.eye(4)).max())
    if residual > POVM_ATOL:
        out.append(f"completeness: effects sum deviates from identity by {residual:.3e}")
    return out


def is_povm(effects: np.ndarray) -> np.ndarray:
    """The checks of ``validate`` on a stack of effect lists at once.

    ``effects`` has shape (..., k, 4, 4); the result is a boolean array of
    the leading shape, True where the k effects are finite, Hermitian, have
    eigenvalues in [0, 1] and sum to the identity, all within POVM_ATOL.
    """
    e = np.asarray(effects, dtype=complex)
    finite = np.isfinite(e).all(axis=(-3, -2, -1))
    # Non-finite entries would make the eigensolver fail; they are already
    # rejected by ``finite``.
    e = np.where(finite[..., None, None, None], e, 0.0)
    adjoint = e.conj().swapaxes(-1, -2)
    herm = np.abs(e - adjoint).max(axis=(-3, -2, -1))
    eigs = np.linalg.eigvalsh((e + adjoint) / 2)
    residual = np.abs(e.sum(axis=-3) - np.eye(4)).max(axis=(-2, -1))
    return (
        finite
        & (herm <= POVM_ATOL)
        & (eigs.min(axis=(-2, -1)) >= -POVM_ATOL)
        & (eigs.max(axis=(-2, -1)) <= 1.0 + POVM_ATOL)
        & (residual <= POVM_ATOL)
    )


def _sharpness_vector(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    outside = ~((0.0 <= lams) & (lams <= 1.0))
    if outside.any():
        raise BadParamError(f"sharpness must be in [0, 1], got {lams[outside][0]}")
    return lams


def werner_bell_povm(lam: float) -> Povm:
    """Four Bell projectors smeared with white noise of strength 1 - lam.

    Effect i is lam |b_i><b_i| + (1-lam)/4 * I. The measurement is projective
    at lam = 1 and trivial at lam = 0.
    """
    if not 0.0 <= lam <= 1.0:
        raise BadParamError(f"sharpness must be in [0, 1], got {lam}")
    effects = []
    for k in (1, 2, 3, 4):
        v = bell_state(k)
        effects.append(lam * np.outer(v, v.conj()) + (1.0 - lam) / 4.0 * np.eye(4))
    return Povm(tuple(effects), label=f"werner-bell(lam={lam:g})")


_BELL_PROJECTORS = np.array([np.outer(bell_state(k), bell_state(k).conj()) for k in (1, 2, 3, 4)])


def werner_bell_effects(lams) -> np.ndarray:
    """Effects of ``werner_bell_povm`` for every sharpness in ``lams``, shape (n, 4, 4, 4)."""
    lam = _sharpness_vector(lams)[:, None, None, None]
    return lam * _BELL_PROJECTORS + (1.0 - lam) / 4.0 * np.eye(4)


def _asymmetric_weights(x, lam):
    """(y1, y2, w1, w2, a, b) of the asymmetric family; elementwise on arrays."""
    root = np.sqrt(1.0 - lam)
    y1 = (2.0 + 2.0 * root - lam) / 4.0
    y2 = lam / 4.0
    w1 = y1 * (1.0 - x) / (y1 + y2)
    w2 = y2 * (1.0 - x) / (y1 + y2)
    a = np.sqrt(1.0 - root) / np.sqrt(2.0)
    b = np.sqrt(1.0 + root) / np.sqrt(2.0)
    return y1, y2, w1, w2, a, b


@dataclass(frozen=True)
class AsymmetricPovmParams:
    """Derived quantities of the asymmetric family at a given (x, lam).

    y1, y2 set the mixing weights w1 = y1(1-x)/(y1+y2) and
    w2 = y2(1-x)/(y1+y2); a, b are the amplitudes of the lam-basis; e, f, g,
    h parameterize the conditional states on pairs (1,2) and (3,4); q, r
    parameterize the pair (1,4) negativity. The combination
    e^2 + f^2 + g^2 + 2 h^2 is identically 1.
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
        x, lam = self.x, self.lam
        if not 0.0 <= x <= 1.0:
            raise BadParamError(f"x must be in [0, 1], got {x}")
        if not 0.0 <= lam <= 1.0:
            raise BadParamError(f"sharpness must be in [0, 1], got {lam}")
        y1, y2, w1, w2, a, b = _asymmetric_weights(x, lam)
        e = np.sqrt(w2)
        f = a * a * np.sqrt(w1) + b * b * np.sqrt(x)
        g = b * b * np.sqrt(w1) + a * a * np.sqrt(x)
        h = a * b * (np.sqrt(w1) - np.sqrt(x))
        q = a * b * (y1 * (1.0 - 2.0 * x) - x * y2) / (y1 + y2)
        r = w2
        for name, value in (
            ("y1", y1), ("y2", y2), ("w1", w1), ("w2", w2),
            ("a", a), ("b", b), ("e", e), ("f", f), ("g", g), ("h", h),
            ("q", q), ("r", r),
        ):
            object.__setattr__(self, name, float(value))


# Each effect mixes one lam-basis member (weight x), its partner in the same
# two-dimensional block (weight w1), and one product vector (weight w2).
_EFFECT_RECIPE = {1: (1, 2, 3), 2: (2, 1, 4), 3: (3, 4, 1), 4: (4, 3, 2)}


def asymmetric_povm(x: float, lam: float) -> Povm:
    """The asymmetric four-outcome family at mixing weight x and sharpness lam.

    The three components of every effect are mutually orthogonal, so each
    effect has eigenvalues {x, w1, w2, 0}, and the four effects sum to the
    identity for every (x, lam).
    """
    params = AsymmetricPovmParams(x, lam)
    effects = []
    for main, partner, prod in _EFFECT_RECIPE.values():
        pieces = (
            (x, lambda_basis(lam, main)),
            (params.w1, lambda_basis(lam, partner)),
            (params.w2, product_basis(prod)),
        )
        effects.append(sum(w * np.outer(v, v.conj()) for w, v in pieces))
    return Povm(tuple(effects), label=f"asymmetric(x={x:g}, lam={lam:g})")


_PRODUCT_PROJECTORS = np.array([np.outer(product_basis(k), product_basis(k)) for k in (1, 2, 3, 4)])
_MAIN, _PARTNER, _PRODUCT = (np.array(column) - 1 for column in zip(*_EFFECT_RECIPE.values()))


def asymmetric_effects(x: float, lams) -> np.ndarray:
    """Effects of ``asymmetric_povm(x, lam)`` for every lam in ``lams``, shape (n, 4, 4, 4)."""
    if not 0.0 <= x <= 1.0:
        raise BadParamError(f"x must be in [0, 1], got {x}")
    lam = _sharpness_vector(lams)
    _, _, w1, w2, a, b = _asymmetric_weights(x, lam)
    zero = np.zeros_like(lam)
    # Rows are the members of the lam-basis, as in ``lambda_basis``.
    basis = np.stack(
        [
            np.stack([a, zero, zero, -b], axis=-1),
            np.stack([b, zero, zero, a], axis=-1),
            np.stack([zero, a, -b, zero], axis=-1),
            np.stack([zero, b, a, zero], axis=-1),
        ],
        axis=1,
    ).astype(complex)
    projectors = basis[..., :, None] * basis[..., None, :]
    return (
        x * projectors[:, _MAIN]
        + w1[:, None, None, None] * projectors[:, _PARTNER]
        + w2[:, None, None, None] * _PRODUCT_PROJECTORS[_PRODUCT]
    )


def effect_entanglement(p: Povm, i: int) -> float:
    """Negativity of effect i normalized to unit trace (1-based index)."""
    from .measures import negativity

    if not 1 <= i <= len(p.effects):
        raise BadIndexError(f"effect index must be 1..{len(p.effects)}, got {i}")
    effect = p.effects[i - 1]
    trace = float(np.trace(effect).real)
    return negativity(effect / trace)


def povm_to_dict(p: Povm) -> dict:
    """Serialize to the JSON schema: entries as [re, im] pairs, row-major.

    In the effect's 4-dimensional index, the protocol's qubit 2 is the most
    significant bit and qubit 3 the least.
    """
    return {
        "label": p.label,
        "effects": [
            [[[float(z.real), float(z.imag)] for z in row] for row in effect]
            for effect in p.effects
        ],
    }


def _is_finite_number(v) -> bool:
    # JSON booleans parse to bool, which is an int subclass.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def povm_from_dict(data: dict) -> Povm:
    """Parse the JSON schema produced by ``povm_to_dict``.

    Structural problems raise InvalidPovmError naming the effect index and
    matrix position; use ``validate`` afterwards for the POVM invariants.
    """
    if not isinstance(data, dict):
        raise InvalidPovmError(f"expected a JSON object, got {type(data).__name__}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise InvalidPovmError("'label' must be a string")
    raw_effects = data.get("effects")
    if not isinstance(raw_effects, list) or not raw_effects:
        raise InvalidPovmError("'effects' must be a non-empty array")
    effects = []
    for i, raw in enumerate(raw_effects, start=1):
        if not isinstance(raw, list) or len(raw) != 4:
            raise InvalidPovmError(f"effect {i}: expected 4 rows")
        matrix = np.zeros((4, 4), dtype=complex)
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 4:
                raise InvalidPovmError(f"effect {i}, row {r}: expected 4 entries")
            for c, entry in enumerate(row):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(_is_finite_number(v) for v in entry)
                ):
                    raise InvalidPovmError(
                        f"effect {i}, row {r}, column {c}: "
                        "expected an [re, im] pair of finite numbers"
                    )
                matrix[r, c] = complex(entry[0], entry[1])
        effects.append(matrix)
    return Povm(tuple(effects), label=label)

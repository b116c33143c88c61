"""Fixed-seed random generators and hypothesis strategies shared by the
test modules."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import strategies as st

from entswap import Povm, povm_to_dict, werner_bell_povm

SEED = 20240817


def rng(salt: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + salt)


def random_hermitian(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_density_matrix(gen: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Full-rank random state built as A A-dagger, trace-normalized."""
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(gen: np.random.Generator, dim: int = 2) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_povm(gen: np.random.Generator, outcomes: int = 4, dim: int = 4) -> Povm:
    """Valid random POVM: PSD blocks G_i whitened by (sum G)^(-1/2)."""
    blocks = []
    for _ in range(outcomes):
        a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        blocks.append(a @ a.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(
        tuple(inv_root @ g @ inv_root for g in blocks),
        label=f"random-{outcomes}",
    )


# JSON values that are neither a finite number nor an array.
_NOT_NUMBER_OR_ARRAY = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_FINITE = st.integers(-2, 2) | st.floats(-2.0, 2.0)


@st.composite
def malformed_povm_payloads(draw):
    """A POVM JSON payload with one structural fault.

    The fault sits at a drawn depth of ``{"effects": [effect][row][entry]
    [component]}``: a component that is not a finite number (non-finite,
    boolean, string, null, array or object), or an array replaced by a
    non-array, by an array of the wrong length, or by one level more or
    less of nesting. Payloads that are not an object, an empty ``effects``
    and a label that is not a string are drawn too.
    """
    lam = draw(st.floats(0.0, 1.0))
    payload = json.loads(json.dumps(povm_to_dict(werner_bell_povm(lam))))
    depth = draw(st.sampled_from(["payload", "label", "effects", "effect", "row", "entry",
                                  "component"]))
    if depth == "payload":
        return draw(_NOT_NUMBER_OR_ARRAY.filter(lambda v: not isinstance(v, dict))
                    | _FINITE | st.lists(_FINITE, max_size=3))
    if depth == "label":
        payload["label"] = draw(_NOT_NUMBER_OR_ARRAY.filter(lambda v: not isinstance(v, str))
                                | _FINITE)
        return payload
    if depth == "effects":
        parent, index = payload, "effects"
    else:
        parent = payload["effects"]
        for _ in range(["effect", "row", "entry", "component"].index(depth)):
            parent = parent[draw(st.integers(0, len(parent) - 1))]
        index = draw(st.integers(0, len(parent) - 1))
    old = parent[index]
    if depth == "component":
        parent[index] = draw(_NOT_NUMBER_OR_ARRAY | st.lists(_FINITE, max_size=2))
        return payload
    lengths = st.integers(0, len(old) + 2).filter(lambda n: n != len(old))
    parent[index] = draw(st.one_of(
        _NOT_NUMBER_OR_ARRAY,
        _FINITE,
        lengths.map(lambda n: (old * 3)[:n]) if depth != "effects" else st.just([]),
        st.just([old]),  # one level more
        st.just(old[0]),  # one level less
    ))
    return payload

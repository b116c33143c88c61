"""Fixed-seed random generators and hypothesis strategies shared by the
test modules."""

from __future__ import annotations

import csv
import json
import math
from io import StringIO

import numpy as np
from hypothesis import strategies as st

from entswap import (
    DensityMatrix,
    InvalidPovmError,
    Povm,
    SwapOutcome,
    initial_four_qubit,
    kron,
    povm_to_dict,
    psd_sqrt,
    report,
    run_swap,
    werner_bell_povm,
)
from entswap.cli import SWEEP_HEADER
from entswap.measures import PAULI, QUANTITIES
from entswap.povm import validate
from entswap.swap import DEGENERATE_PROBABILITY, PAIRS

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
# JSON integers that no float can hold.
_BEYOND_FLOAT = st.sampled_from([10**400, -10**400])
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
        parent[index] = draw(_NOT_NUMBER_OR_ARRAY | _BEYOND_FLOAT | st.lists(_FINITE, max_size=2))
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


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def povm_from_dict_walk(data: dict) -> Povm:
    """``povm.povm_from_dict`` as one check and one ``complex`` per entry,
    kept as the reference for its walk, ``povm._effects``, which converts all
    entries at once. An integer beyond float range counts as a number that
    is not finite."""
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
                    or not all(_finite_number(v) for v in entry)
                ):
                    raise InvalidPovmError(
                        f"effect {i}, row {r}, column {c}: "
                        "expected an [re, im] pair of finite numbers"
                    )
                matrix[r, c] = complex(entry[0], entry[1])
        effects.append(matrix)
    return Povm(tuple(effects), label=label)


def partial_trace_reference(m: np.ndarray, qubits_total: int, keep) -> np.ndarray:
    """``linalg.partial_trace`` of a valid ``keep``, with the axis
    permutation worked out on every call: the reference for its cached plan."""
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    row, col = len(lead), len(lead) + qubits_total
    kept = [q - 1 for q in sorted(set(int(q) for q in keep))]
    traced = [q for q in range(qubits_total) if q not in kept]
    perm = (
        list(range(row))
        + [row + q for q in kept] + [col + q for q in kept]
        + [row + q for q in traced] + [col + q for q in traced]
    )
    tensor = m.reshape(lead + (2,) * (2 * qubits_total)).transpose(perm)
    dim_keep, dim_traced = 2 ** len(kept), 2 ** len(traced)
    tensor = tensor.reshape(lead + (dim_keep, dim_keep, dim_traced, dim_traced))
    return np.trace(tensor, axis1=-2, axis2=-1)


def run_swap_per_effect(p: Povm) -> list:
    """``swap.run_swap`` as one pass per effect, kept as the reference for the
    stacked pipeline: the same steps on one 16x16 matrix at a time."""
    problems = validate(p)
    if problems:
        raise InvalidPovmError("; ".join(problems))
    i2 = np.eye(2, dtype=complex)
    rho0 = np.asarray(initial_four_qubit())
    outcomes = []
    for index, effect in enumerate(p.effects, start=1):
        k = kron(kron(i2, psd_sqrt(effect)), i2)
        joint = k @ rho0 @ k.conj().T
        probability = float(np.trace(joint).real)
        if probability < DEGENERATE_PROBABILITY:
            outcomes.append(
                SwapOutcome(index, probability, None, None, None, degenerate=True)
            )
            continue
        conditional = joint / probability
        outcomes.append(
            SwapOutcome(
                outcome_index=index,
                probability=probability,
                rho14=DensityMatrix(2, partial_trace_reference(conditional, 4, {1, 4})),
                rho12=DensityMatrix(2, partial_trace_reference(conditional, 4, {1, 2})),
                rho34=DensityMatrix(2, partial_trace_reference(conditional, 4, {3, 4})),
            )
        )
    return outcomes


def analyze_per_pair(p: Povm, tol: float) -> list[tuple]:
    """What ``entswap analyze`` reports, from ``run_swap`` and one ``report``
    per pair state, kept as the reference for the stacked kernel.

    Per outcome: (index, probability, pairs), where pairs is None for a
    degenerate outcome and otherwise lists (pair, the six QUANTITIES,
    [entangled, steerable, nonlocal]) in PAIRS order.
    """
    rows = []
    for outcome in run_swap(p):
        pairs = None
        if not outcome.degenerate:
            pairs = []
            for pair in PAIRS:
                rep = report(outcome.pair_state(pair), tol)
                flags = [rep.entangled, rep.steerable, rep.nonlocal_]
                pairs.append((pair, list(rep.values().values()), flags))
        rows.append((outcome.outcome_index, outcome.probability, pairs))
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else format(float(value), ".12g")


def sweep_csv_per_field(records) -> str:
    """The sweep CSV with one ``format`` call per field, kept as the
    reference for the one-template rows of ``cli._sweep_csv``."""
    lines = [SWEEP_HEADER]
    for r in records:
        fields = [
            r.case, _fmt(r.x), _fmt(r.lam), str(r.outcome), r.pair, _fmt(r.probability),
            _fmt(r.negativity), _fmt(r.steering2), _fmt(r.steering3), _fmt(r.nonlocality),
            _fmt(r.M), _fmt(r.Lambda3),
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def correlation_stack_einsum(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """``measures._correlation_stack`` with T as one ``einsum`` over the
    Pauli products, kept as the reference for its matrix product."""
    paulis = np.array([[kron(si, sj) for sj in PAULI] for si in PAULI])
    raw = np.einsum("...ab,ijba->...ij", m, paulis)  # Tr[rho (sigma_i x sigma_j)]
    T = raw.real
    return T, np.abs(raw.imag).max(axis=(-2, -1)), T.swapaxes(-1, -2) @ T


def analyze_csv_writer(p: Povm, outcomes, values, tol: float) -> str:
    """``cli._analyze_csv`` with every row written by ``csv.writer``, kept as
    the reference for its one-template rows."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    flags = (("entangled", 0), ("steerable", 2), ("nonlocal", 3))
    writer.writerow(["label", "outcome", "pair", "probability", *QUANTITIES,
                     *(flag for flag, _ in flags)])
    for outcome, rows in zip(outcomes, values.tolist()):
        if outcome.degenerate:
            continue
        for pair, row in zip(PAIRS, rows):
            where = [p.label, str(outcome.outcome_index), pair, _fmt(outcome.probability)]
            writer.writerow([*where, *map(_fmt, row),
                             *(str(row[column] > tol).lower() for _, column in flags)])
    return buf.getvalue()

"""The eigenvalue floor of the density-matrix check: one Cholesky
factorization decides it for a stack that passes, and ``eigvalsh`` flags and
words a failure. Both must agree with the eigenvalue reference
``eigvalsh(sym)[..., 0] >= -STATE_ATOL`` on every matrix."""

import re

import numpy as np
import pytest

from entswap import DensityMatrix, NotAStateError, find_threshold, werner_state
from entswap.analysis import SweepConfig, sweep
from entswap.states import STATE_ATOL, check_density_matrix, is_density_matrix
from helpers import random_density_matrix, random_unitary, rng


def _states(gen: np.random.Generator, lows) -> np.ndarray:
    """Unit-trace Hermitian matrices U diag(low, a, b, c) U†, one per ``low``,
    with a, b, c drawn positive and summing to 1 - low."""
    out = []
    for low in lows:
        spectrum = np.concatenate([[low], gen.dirichlet(np.ones(3)) * (1.0 - low)])
        u = random_unitary(gen, 4)
        out.append((u * spectrum) @ u.conj().T)
    return np.array(out)


def _lowest(stack: np.ndarray) -> np.ndarray:
    """The reference: the smallest eigenvalue of each matrix's Hermitian part,
    halved before adding as the check does."""
    half = stack / 2
    return np.linalg.eigvalsh(half + half.conj().swapaxes(-1, -2))[..., 0]


def _message(matrix) -> str:
    with pytest.raises(NotAStateError) as info:
        check_density_matrix(matrix, 2)
    return str(info.value)


def test_the_floor_matches_the_eigenvalue_reference():
    gen = rng(40)
    stack = _states(gen, gen.uniform(-1.2e-10, 2e-11, 2000))
    lowest = _lowest(stack)
    want = lowest >= -STATE_ATOL
    assert 0 < want.sum() < want.size  # both sides of the floor are drawn
    assert [bool(is_density_matrix(m)) for m in stack] == want.tolist()
    assert is_density_matrix(stack).tolist() == want.tolist()
    for matrix, ok, low in zip(stack, want, lowest):
        if ok:
            assert check_density_matrix(matrix, 2) is matrix
            DensityMatrix(2, matrix)
        else:
            assert _message(matrix) == f"negative eigenvalue {low:.3e}"


def test_a_failing_state_among_passing_ones_keeps_every_flag_and_the_message():
    gen = rng(41)
    passing = _states(gen, gen.uniform(0.0, 2e-11, 6))
    # Passes the floor, but the factorization with STATE_ATOL / 2 fails on it.
    near = _states(gen, [-0.9e-10])
    failing = _states(gen, [-3e-10])
    stack = np.concatenate([passing[:3], near, failing, passing[3:]])
    alone = [bool(is_density_matrix(m)) for m in stack]
    assert alone == [True] * 4 + [False] + [True] * 3
    assert is_density_matrix(stack).tolist() == alone
    assert is_density_matrix(stack.reshape(2, 4, 4, 4)).tolist() == [alone[:4], alone[4:]]
    message = f"negative eigenvalue {_lowest(failing)[0]:.3e}"
    assert _message(failing[0]) == message
    assert _message(stack) == message
    assert _message(stack[::-1]) == message


@pytest.mark.parametrize("low, ok", [(-0.99e-10, True), (-1.01e-10, False)])
def test_the_floor_sits_at_state_atol(low, ok):
    diagonal = np.diag([0.5, 0.3, 0.2 - low, low]).astype(complex)
    u = random_unitary(rng(42), 4)
    for matrix in (diagonal, u @ diagonal @ u.conj().T):
        assert bool(is_density_matrix(matrix)) is ok
        if ok:
            DensityMatrix(2, matrix)
        else:
            assert _message(matrix) == f"negative eigenvalue {_lowest(matrix):.3e}"


@pytest.mark.parametrize("matrix, message", [
    (np.full((4, 4), 1e308), "trace is inf+0j, expected 1"),
    (np.diag([1.7e308, -1.7e308, 1.0, 0.0]), "negative eigenvalue -1.700e+308"),
], ids=["all 1e308", "unit trace, huge spectrum"])
def test_huge_matrices_keep_their_messages_without_a_warning(matrix, message):
    # The suite turns every warning into an error.
    assert _message(matrix) == message
    with pytest.raises(NotAStateError, match=f"^{re.escape(message)}$"):
        DensityMatrix(2, matrix)
    assert not is_density_matrix(np.array([np.eye(4) / 4, matrix])).tolist()[1]


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts of ``np.linalg.eigvalsh``/``eigh`` calls and of the matrices they
    solve, and of the matrices ``eigh`` alone solves."""
    counts = {"calls": 0, "matrices": 0, "eigh_matrices": 0}
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            matrices = int(np.prod(np.shape(a)[:-2]))
            counts["calls"] += 1
            counts["matrices"] += matrices
            if _name == "eigh":
                counts["eigh_matrices"] += matrices
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_passing_states_make_no_eigensolve(eigensolves):
    gen = rng(43)
    stack = np.array([random_density_matrix(gen) for _ in range(50)])
    assert is_density_matrix(stack).all()
    check_density_matrix(stack, 2)
    DensityMatrix(2, stack[0])
    werner_state(0.5, 1)
    assert eigensolves == {"calls": 0, "matrices": 0, "eigh_matrices": 0}


def test_engine_eigensolve_counts_do_not_grow(eigensolves):
    # Counts repeat exactly, so a solve added to the engine path fails here.
    sweep(SweepConfig("III", count=28))
    assert eigensolves["calls"] <= 12 and eigensolves["matrices"] <= 910
    eigensolves.update(calls=0, matrices=0, eigh_matrices=0)
    # One engine call of 43 points: eigh on the 43 rooted effects, eigvalsh on
    # the other 129 and on the 43 partial transposes; the scalar check of the
    # root adds the 4 effects of run_swap's square roots (eigh), the 4 of its
    # validate and 1 partial transpose (eigvalsh).
    find_threshold("I", None, "14", "negativity", (0.2, 0.9))
    assert eigensolves["calls"] <= 14 and eigensolves["matrices"] <= 224
    assert eigensolves["eigh_matrices"] <= 47

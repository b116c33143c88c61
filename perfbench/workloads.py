"""Seeded inputs and independent oracle checks for the benchmark workloads.

Every workload is a pool of tasks generated from the seed before any timing
starts; the measurement loop cycles through the pool. A task is a JSON-able
dict, so the set-up probe in a fresh process can run it too:

* ``{"kind": "cli", "argv": [...]}`` calls ``entswap.cli.main(argv)``;
* ``{"kind": "threshold", "args": {...}}`` calls ``entswap.find_threshold``.

The expected result of each task is computed here, from the closed forms or
the spectral (1,4) state, and kept apart from the task in ``expect``.
Pools are stratified (equal shares of cases, grid sizes, effect counts and
input kinds, shuffled by the seed), so different seeds give the same mix of
work and the run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import csv
import json
import math
import os
from io import StringIO

import numpy as np
from scipy.optimize import brentq

import entswap
from entswap import analysis, cli, measures
from entswap.analysis import VERIFY_TOL
from entswap.swap import DEGENERATE_PROBABILITY, PAIRS

# A bisected root may sit this many times the requested tolerance away from
# the closed-form root: bisection stops within tol of a sign change, and the
# 16-dimensional pipeline moves the sign change by rounding noise only.
ROOT_TOL_FACTOR = 4.0

# Requested root tolerances, one per threshold task. The bisection steps
# grow with log(1/tol), so the tolerances spread the task cost in steps of
# about 15%; their shares put p50 inside the 1e-9 class and p90 inside the
# 1e-11 class, not on a boundary between classes, which keeps both steady.
THRESHOLD_TOLS = (1e-5,) * 10 + (1e-7,) * 10 + (1e-9,) * 16 + (1e-11,) * 12

_QUANTITIES = ("negativity", "steering2", "steering3", "nonlocality", "M", "Lambda3")
_ANALYZE_HEADER = [
    "label", "outcome", "pair", "probability", *_QUANTITIES,
    "entangled", "steerable", "nonlocal",
]


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- sweep_grid

def _sweep_pool(rng: np.random.Generator, work: str) -> list[dict]:
    """64 sweeps: 16 per case, grid sizes 20..35 four times each.

    Half of the II-IV sweeps keep the preset x (so case III keeps its
    steering sliver at lam > 0.9999579), half draw x from [0.05, 0.95].
    A quarter of the sweeps stop at lam = 1, inside that sliver.
    """
    cases = [c for c in ("I", "II", "III", "IV") for _ in range(16)]
    sizes = [n for n in range(20, 36) for _ in range(4)]
    rng.shuffle(sizes)
    tasks = []
    for i, (case, n) in enumerate(zip(cases, sizes)):
        slot = i % 16
        x = None
        if case != "I" and slot % 2 == 1:
            x = float(rng.uniform(0.05, 0.95))
        start = float(rng.uniform(0.0, 0.4))
        stop = 1.0 if slot % 4 < 1 else float(rng.uniform(0.6, 1.0))
        out = os.path.join(work, f"sweep-{i}.csv")
        argv = ["sweep", "--case", case]
        if x is not None:
            argv += ["--x", _fmt(x)]
        argv += [
            "--lambda-start", _fmt(start), "--lambda-stop", _fmt(stop),
            "--grid", str(n), "--out", out,
        ]
        resolved = analysis._resolve_x(case, x)
        lams = np.linspace(start, stop, n)
        expected = []
        for lam in lams:
            forms = (
                entswap.case1_closed_forms(float(lam))
                if case == "I"
                else entswap.case2_closed_forms(resolved, float(lam))
            )
            expected.append({pair: forms.report(pair).values() for pair in PAIRS})
        tasks.append({
            "kind": "cli",
            "argv": argv,
            "out": out,
            "expect": {
                "exit": 0, "case": case, "x": resolved,
                "lams": [float(v) for v in lams], "values": expected,
            },
        })
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def check_sweep(task: dict, code, text: str | None) -> str | None:
    """Compare every CSV row with the closed forms at VERIFY_TOL."""
    exp = task["expect"]
    if code != exp["exit"]:
        return f"exit code {code!r}, expected {exp['exit']}"
    if text is None:
        return "no output file"
    rows = text.splitlines()
    if not rows or rows[0] != cli.SWEEP_HEADER:
        return f"header {rows[:1]!r}"
    body = rows[1:]
    want = len(exp["lams"]) * 4 * len(PAIRS)
    if len(body) != want:
        return f"{len(body)} rows, expected {want}"
    for r, line in enumerate(body):
        cols = line.split(",")
        k, rest = divmod(r, 4 * len(PAIRS))
        outcome, p = divmod(rest, len(PAIRS))
        pair = PAIRS[p]
        where = f"row {r + 1}"
        if cols[0] != exp["case"] or cols[3] != str(outcome + 1) or cols[4] != pair:
            return f"{where}: key columns {cols[:5]}, expected {exp['case']} {outcome + 1} {pair}"
        if exp["x"] is None:
            if cols[1] != "":
                return f"{where}: x column {cols[1]!r}, expected empty"
        elif abs(float(cols[1]) - exp["x"]) > 1e-11:
            return f"{where}: x {cols[1]}, expected {exp['x']!r}"
        if abs(float(cols[2]) - exp["lams"][k]) > 1e-11:
            return f"{where}: lambda {cols[2]}, expected {exp['lams'][k]!r}"
        if abs(float(cols[5]) - 0.25) > VERIFY_TOL:
            return f"{where}: probability {cols[5]}, expected 0.25"
        for name, got in zip(_QUANTITIES, cols[6:]):
            ref = exp["values"][k][pair][name]
            if abs(float(got) - ref) > VERIFY_TOL:
                return f"{where}: {name} {got}, closed form {ref!r}"
    return None


# ------------------------------------------------------------ threshold_scan

def _signed_closed_form(forms, pair: str, measure: str) -> float:
    """Unclamped quantifier from the closed forms, as find_threshold bisects it."""
    if isinstance(forms, entswap.Case1ClosedForms):
        w2 = (forms.lam if pair == "14" else forms.s) ** 2
        negativity = (3.0 * math.sqrt(w2) - 1.0) / 2.0
        t = (w2, w2, w2)
    else:
        negativity = float(getattr(forms, f"negativity_{pair}"))
        t = sorted(getattr(forms, f"t_{pair}"), reverse=True)
    if measure == "negativity":
        return negativity
    if measure == "steering3":
        return measures.steering3_from_total(sum(t))
    return measures.nonlocality_from_pair_sum(t[0] + t[1])


def _closed_roots(case: str, x: float | None, measure: str) -> dict[str, float]:
    """Pairs whose closed form changes sign exactly once on (0, 1], with the root."""
    def forms_at(lam: float):
        if case == "I":
            return entswap.case1_closed_forms(lam)
        return entswap.case2_closed_forms(x, lam)

    grid = np.linspace(0.0, 1.0, 401)[1:]
    forms = [forms_at(float(lam)) for lam in grid]
    roots = {}
    for pair in PAIRS:
        positive = np.array([_signed_closed_form(f, pair, measure) > 0.0 for f in forms])
        flips = np.flatnonzero(np.diff(positive.astype(int)))
        if flips.size != 1:
            continue
        i = int(flips[0])
        roots[pair] = float(brentq(
            lambda lam: _signed_closed_form(forms_at(lam), pair, measure),
            float(grid[i]), float(grid[i + 1]), xtol=1e-15,
        ))
    return roots


def _threshold_pool(rng: np.random.Generator) -> list[dict]:
    """48 roots: 24 of case I (all 12 pair/measure roots twice) and 24 of the
    asymmetric family (8 each of cases II-IV at a seeded x, two per
    measure), alternating between the two families, with the tolerances of
    THRESHOLD_TOLS in seeded order. Each bracket has a seeded width of 0.25
    to 0.35 around the root, so the bisection steps hang on tol alone."""
    case1 = []
    for measure in analysis.MEASURES:
        for pair, root in _closed_roots("I", None, measure).items():
            case1 += [("I", None, pair, measure, root)] * 2
    rng.shuffle(case1)
    family = []
    for case in ("II", "III", "IV"):
        for k in range(8):
            measure = analysis.MEASURES[k % 4]
            roots = {}
            while not roots:
                x = float(rng.uniform(0.05, 0.95))
                roots = _closed_roots(case, x, measure)
            pair = sorted(roots)[int(rng.integers(len(roots)))]
            family.append((case, x, pair, measure, roots[pair]))
    rng.shuffle(family)
    tols = list(THRESHOLD_TOLS)
    rng.shuffle(tols)
    draws = [draw for pair in zip(case1, family) for draw in pair]
    tasks = []
    for (case, x, pair, measure, root), tol in zip(draws, tols):
        width = float(rng.uniform(0.25, 0.35))
        lo = min(max(root - float(rng.uniform(0.1, 0.9)) * width, 0.1 * root), 1.0 - width)
        tasks.append({
            "kind": "threshold",
            "args": {
                "case": case, "x": x, "pair": pair, "measure": measure,
                "bracket": [lo, lo + width], "tol": tol,
            },
            "expect": {"root": root},
        })
    return tasks


def check_threshold(task: dict, result, text: str | None) -> str | None:
    """The bisected root must sit within ROOT_TOL_FACTOR * tol of the closed-form root."""
    args = task["args"]
    if not isinstance(result, entswap.ThresholdResult):
        return f"returned {result!r}"
    if (result.pair, result.measure) != (args["pair"], args["measure"]):
        return f"result for {result.pair}/{result.measure}"
    miss = abs(result.root - task["expect"]["root"])
    if miss > ROOT_TOL_FACTOR * args["tol"]:
        return f"root {result.root!r} is {miss:.3e} from closed form {task['expect']['root']!r}"
    return None


# --------------------------------------------------------------- custom_povm

def _random_effects(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` PSD effects of random rank 1..4, whitened to sum to I."""
    while True:
        ranks = rng.integers(1, 5, size=count)
        if ranks.sum() >= 4:
            break
    blocks = []
    for r in ranks:
        a = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        blocks.append(a @ a.conj().T)
    w, v = np.linalg.eigh(sum(blocks))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    effects = [inv_root @ g @ inv_root for g in blocks]
    return [(e + e.conj().T) / 2 for e in effects]


def _malform(rng: np.random.Generator, effects: list[np.ndarray], kind: str) -> None:
    """Break one invariant in place: Hermiticity, positivity, completeness or finiteness."""
    i, j = 0, 1
    if kind == "non_hermitian":
        effects[i][0, 1] += 1e-3 * (1.0 + rng.uniform())
    elif kind == "non_psd":
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        proj = np.outer(v, v.conj()) / np.vdot(v, v).real
        shift = 0.05 + float(np.linalg.eigvalsh(effects[i]).max())
        effects[i] -= shift * proj
        effects[j] += shift * proj
    elif kind == "incomplete":
        effects[i] *= 0.9
    elif kind == "non_finite":
        effects[i][int(rng.integers(4)), int(rng.integers(4))] = complex(float("nan"), 0.0)
    else:
        raise ValueError(kind)


def _povm_json(effects: list[np.ndarray], label: str) -> str:
    return json.dumps({
        "label": label,
        "effects": [
            [[[float(z.real), float(z.imag)] for z in row] for row in e] for e in effects
        ],
    })


MALFORMED = ("non_hermitian", "non_psd", "incomplete", "non_finite")


def _custom_pool(rng: np.random.Generator, work: str) -> list[dict]:
    """280 POVMs of 2..8 effects, 35 of each count and 70 of 5 effects. The
    double share of the middle count puts the median task inside one mode of
    the latency distribution rather than between two, which keeps p50
    steady. 28 (one in ten) are malformed, 7 of each kind in MALFORMED; 28
    valid ones carry a near-zero effect, whose outcome is degenerate."""
    counts = [n for n in (2, 3, 4, 5, 5, 6, 7, 8) for _ in range(35)]
    rng.shuffle(counts)
    kinds = ["valid"] * 224 + ["degenerate"] * 28 + [k for k in MALFORMED for _ in range(7)]
    rng.shuffle(kinds)
    tasks = []
    for i, (count, kind) in enumerate(zip(counts, kinds)):
        effects = _random_effects(rng, count)
        if kind == "degenerate":
            k = int(rng.integers(count))
            tiny = 1e-14 / float(np.trace(effects[k]).real)
            effects[(k + 1) % count] += (1.0 - tiny) * effects[k]
            effects[k] *= tiny
        elif kind in MALFORMED:
            _malform(rng, effects, kind)
        path = os.path.join(work, f"povm-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_povm_json(effects, f"random-{i} ({kind})"))
        out = os.path.join(work, f"analyze-{i}.csv")
        expect = {"kind": kind, "exit": 3 if kind in MALFORMED else 0}
        if expect["exit"] == 0:
            p = entswap.Povm(tuple(effects), label=f"random-{i} ({kind})")
            probs = [float(np.trace(e).real) / 4.0 for e in effects]
            expect["label"] = p.label
            expect["outcomes"] = [
                {
                    "index": n,
                    "probability": prob,
                    "rho14": entswap.report(entswap.rho14_spectral(p, n)).values(),
                }
                for n, prob in enumerate(probs, start=1)
                if prob >= DEGENERATE_PROBABILITY
            ]
        tasks.append({
            "kind": "cli",
            "argv": ["analyze", "--povm", path, "--format", "csv", "--out", out],
            "out": out,
            "expect": expect,
        })
    return tasks


def check_custom(task: dict, code, text: str | None) -> str | None:
    """Exit code; probabilities tr(E_i)/4 and (1,4) quantifiers of rho14_spectral."""
    exp = task["expect"]
    if code != exp["exit"]:
        return f"exit code {code!r}, expected {exp['exit']} ({exp['kind']} POVM)"
    if exp["exit"] != 0:
        return None if text is None else "output written for a rejected POVM"
    if text is None:
        return "no output file"
    rows = list(csv.reader(StringIO(text)))
    if not rows or rows[0] != _ANALYZE_HEADER:
        return f"header {rows[:1]!r}"
    body = rows[1:]
    if len(body) != len(PAIRS) * len(exp["outcomes"]):
        return f"{len(body)} rows for {len(exp['outcomes'])} non-degenerate outcomes"
    for r, cols in enumerate(body):
        outcome = exp["outcomes"][r // len(PAIRS)]
        pair = PAIRS[r % len(PAIRS)]
        where = f"row {r + 1}"
        if cols[0] != exp["label"] or cols[1] != str(outcome["index"]) or cols[2] != pair:
            return f"{where}: key columns {cols[:3]}"
        if abs(float(cols[3]) - outcome["probability"]) > VERIFY_TOL:
            return f"{where}: probability {cols[3]}, tr(E)/4 = {outcome['probability']!r}"
        if pair == "14":
            for name, got in zip(_QUANTITIES, cols[4:10]):
                ref = outcome["rho14"][name]
                if abs(float(got) - ref) > VERIFY_TOL:
                    return f"{where}: {name} {got}, rho14_spectral gives {ref!r}"
    return None


# --------------------------------------------------------------------- API

CHECKS = {"sweep_grid": check_sweep, "threshold_scan": check_threshold, "custom_povm": check_custom}


def make_pool(name: str, seed: int, work: str) -> list[dict]:
    """Generate the seeded task pool of one workload; files go under ``work``."""
    rng = np.random.default_rng([seed, list(CHECKS).index(name)])  # salted per workload
    if name == "sweep_grid":
        return _sweep_pool(rng, work)
    if name == "threshold_scan":
        return _threshold_pool(rng)
    return _custom_pool(rng, work)


def rows_of(name: str, task: dict) -> int:
    """Pair-state rows a correct task quantifies (0 where no rows are emitted)."""
    exp = task["expect"]
    if name == "sweep_grid":
        return len(exp["lams"]) * 4 * len(PAIRS)
    if name == "custom_povm" and exp["exit"] == 0:
        return len(exp["outcomes"]) * len(PAIRS)
    return 0

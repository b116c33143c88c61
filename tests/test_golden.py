"""CLI outputs compared byte for byte with the files under tests/golden/.

Each golden file holds the stdout of one command. A change that alters an
output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and lists the change in
CHANGES.md; any other change must leave every byte as it is. One command
per subcommand also runs as ``python -m entswap.cli`` in a new process, so a
one-shot process and the parser that ``main`` reuses within a process are
held to the same bytes. Sweeps too long to keep as files are held to the
SHA-256 of their stdout, in ``golden/sweep_sha256.json``.

Library outputs are held the same way: ``golden/library_sha256.json`` holds
the SHA-256 of ``classify_table``, ``verify`` and analytic and checked
sweeps, every float as ``float.hex``. Running this file as a script also
rewrites ``golden/threshold_roots.json`` (the threshold_scan queries of the
benchmark at seeds 1-3 with their roots, which ``tests/test_closed_form_core.py``
reads) and prints the ``GRID_DIGEST`` of that file. Goldens are regenerated
only from the parent tree of a change, never from the change itself.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest

from entswap import (
    NonMonotoneWarning,
    SweepConfig,
    asymmetric_povm,
    classify_table,
    find_threshold,
    povm_to_dict,
    sweep,
    verify,
    werner_bell_povm,
)
from entswap.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
SRC = os.path.join(os.path.dirname(TESTS), "src")
BENCH = os.path.join(os.path.dirname(TESTS), "perfbench")

POVMS = {
    "werner_bell_0.5": lambda: werner_bell_povm(0.5),
    "werner_bell_1.0": lambda: werner_bell_povm(1.0),
    "asymmetric_0.8_0.5": lambda: asymmetric_povm(0.8, 0.5),
    "asymmetric_0.725_0.9": lambda: asymmetric_povm(0.725, 0.9),
}

EXTENSIONS = {"csv": "csv", "text": "txt"}


def commands() -> list[tuple[str, list[str]]]:
    """(golden file name, argv) of every golden output; ``analyze`` takes
    the name of an entry of POVMS in place of a path."""
    out = []
    for case in ("I", "II", "III", "IV"):
        out.append((f"sweep_{case}_grid11.csv", ["sweep", "--case", case, "--grid", "11"]))
        for fmt, ext in EXTENSIONS.items():
            argv = ["thresholds", "--case", case, "--grid", "21", "--format", fmt]
            out.append((f"thresholds_{case}_grid21.{ext}", argv))
    out.append(("verify_grid11.txt", ["verify", "--grid", "11"]))
    for name in POVMS:
        for fmt, ext in EXTENSIONS.items():
            out.append((f"analyze_{name}.{ext}", ["analyze", "--povm", name, "--format", fmt]))
    return out


def _with_povm_file(argv: list[str], work: str) -> list[str]:
    """``argv`` with the POVMS name of an ``analyze`` replaced by a JSON file."""
    if argv[0] != "analyze":
        return argv
    path = os.path.join(work, f"{argv[2]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(povm_to_dict(POVMS[argv[2]]()), fh)
    return [*argv[:2], path, *argv[3:]]


def run(argv: list[str], work: str) -> str:
    """The stdout of a command, which must exit 0 with nothing on stderr."""
    argv = _with_povm_file(argv, work)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.mark.parametrize("name, argv", commands(), ids=[name for name, _ in commands()])
def test_output_matches_golden_file(name, argv, tmp_path):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert run(argv, str(tmp_path)) == fh.read()


DIGESTS = os.path.join(GOLDEN, "sweep_sha256.json")


def large_sweeps() -> list[tuple[str, list[str]]]:
    """(digest key, argv) of the sweeps held to a SHA-256."""
    return [
        (f"sweep_{case}_grid{grid}", ["sweep", "--case", case, "--grid", str(grid)])
        for case in ("I", "II", "III", "IV")
        for grid in (101, 2000)
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, argv", large_sweeps(), ids=[name for name, _ in large_sweeps()])
def test_large_sweep_matches_golden_digest(name, argv, tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    assert sorted(digests) == sorted(key for key, _ in large_sweeps())
    assert sha256(run(argv, str(tmp_path))) == digests[name]


SUBPROCESS = [
    "sweep_III_grid11.csv", "thresholds_II_grid21.txt", "verify_grid11.txt",
    "analyze_asymmetric_0.725_0.9.csv",
]


@pytest.mark.parametrize("name", SUBPROCESS)
def test_one_shot_process_matches_golden_file(name, tmp_path):
    argv = _with_povm_file(dict(commands())[name], str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-m", "entswap.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC}, check=False,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert done.stdout == fh.read()


def plain(value):
    """A library output as JSON-able data that tells every bit: each float as
    its type name and ``float.hex``, a dataclass as its fields, a dict as its
    items in order."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[plain(k), plain(v)] for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, float):
        return [type(value).__name__, value.hex()]
    assert value is None or isinstance(value, (bool, int, str)), type(value)
    return value


def library_outputs() -> dict:
    """Digest key -> a call whose output ``golden/library_sha256.json`` pins."""
    calls = {}
    for case in ("I", "II", "III", "IV"):
        for root_tol in (1e-5, 1e-9, 1e-12):
            calls[f"classify_table_{case}_root_tol_{root_tol:g}"] = (
                lambda case=case, root_tol=root_tol: classify_table(case, root_tol=root_tol)
            )
        for points in (101, 1001):
            calls[f"verify_{case}_grid{points}"] = (
                lambda case=case, points=points: verify(case, grid=np.linspace(0.0, 1.0, points))
            )
        for pipeline in ("analytic", "both"):
            calls[f"sweep_{pipeline}_{case}_grid301"] = (
                lambda case=case, pipeline=pipeline:
                    sweep(SweepConfig(case=case, count=301, pipeline=pipeline))
            )
    return calls


LIBRARY_DIGESTS = os.path.join(GOLDEN, "library_sha256.json")


def library_digest(name: str) -> str:
    return sha256(json.dumps(plain(library_outputs()[name]())))


@pytest.mark.parametrize("name", library_outputs())
def test_library_output_matches_golden_digest(name):
    with open(LIBRARY_DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    assert sorted(digests) == sorted(library_outputs())
    assert library_digest(name) == digests[name]


def threshold_roots_text() -> str:
    """``golden/threshold_roots.json``: one line per threshold_scan query of
    ``perfbench/workloads.py`` at seeds 1-3, with its root as ``float.hex``."""
    sys.path.insert(0, BENCH)
    from workloads import make_pool

    lines = []
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotoneWarning)
        for seed in (1, 2, 3):
            for task in make_pool("threshold_scan", seed, work):
                args = task["args"]
                root = find_threshold(
                    args["case"], args["x"], args["pair"], args["measure"],
                    tuple(args["bracket"]), args["tol"],
                ).root
                lines.append(json.dumps({"seed": seed, **args, "root": root.hex()}))
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, argv in commands():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(run(argv, work))
        digests = {name: sha256(run(argv, work)) for name, argv in large_sweeps()}
    with open(DIGESTS, "w", encoding="utf-8", newline="") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")
    with open(LIBRARY_DIGESTS, "w", encoding="utf-8", newline="") as fh:
        json.dump({name: library_digest(name) for name in library_outputs()}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(GOLDEN, "threshold_roots.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(threshold_roots_text())

    from test_closed_form_core import grid_digest

    print(f"GRID_DIGEST = {grid_digest()!r}")

"""CLI outputs compared byte for byte with the files under tests/golden/.

Each golden file holds the stdout of one command. A change that alters an
output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and lists the change in
CHANGES.md; any other change must leave every byte as it is. One command
per subcommand also runs as ``python -m entswap.cli`` in a new process, so a
one-shot process and the parser that ``main`` reuses within a process are
held to the same bytes. Sweeps too long to keep as files are held to the
SHA-256 of their stdout, in ``golden/sweep_sha256.json``.
"""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from entswap import asymmetric_povm, povm_to_dict, werner_bell_povm
from entswap.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
SRC = os.path.join(os.path.dirname(TESTS), "src")

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


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, argv in commands():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(run(argv, work))
        digests = {name: sha256(run(argv, work)) for name, argv in large_sweeps()}
    with open(DIGESTS, "w", encoding="utf-8", newline="") as fh:
        json.dump(digests, fh, indent=2)
        fh.write("\n")

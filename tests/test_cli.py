import csv
import dataclasses
import errno
import json
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entswap import Povm, analysis, asymmetric_povm, cli, povm_to_dict, sweep, werner_bell_povm
from entswap.analysis import CASES, SweepConfig, SweepRecord
from entswap.cli import SWEEP_HEADER, build_parser, main
from entswap.swap import PAIRS
from helpers import malformed_povm_payloads, sweep_csv_per_field

I4 = np.eye(4, dtype=complex)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_stdout_shape(capsys):
    code, out, err = run_cli(capsys, "sweep", "--case", "I", "--grid", "5")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 5 * 4 * 3


def test_sweep_columns_are_the_record_fields():
    fields = [field.name for field in dataclasses.fields(SweepRecord)]
    assert SWEEP_HEADER.split(",") == ["lambda" if name == "lam" else name for name in fields]


def test_sweep_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--case", "II", "--grid", "3")
    assert code == 0
    rows = list(csv.DictReader(StringIO(out)))
    records = sweep(SweepConfig(case="II", count=3))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row["case"] == rec.case
        assert row["pair"] == rec.pair
        assert int(row["outcome"]) == rec.outcome
        assert abs(float(row["x"]) - rec.x) < 1e-15
        for name in ("lambda", "probability", "negativity", "steering2",
                     "steering3", "nonlocality", "M", "Lambda3"):
            attr = {"lambda": "lam"}.get(name, name)
            assert abs(float(row[name]) - getattr(rec, attr)) < 1e-9


@pytest.mark.parametrize(
    "case, x", [("I", None)] + [(case, x) for case in ("II", "III", "IV") for x in (None, 0.41)]
)
@pytest.mark.parametrize("grid", [2, 7, 31])
def test_sweep_rows_match_the_per_field_reference(case, x, grid, capsys):
    args = ["--x", repr(x)] if x is not None else []
    code, out, _ = run_cli(capsys, "sweep", "--case", case, "--grid", str(grid), *args)
    assert code == 0
    assert out == sweep_csv_per_field(sweep(SweepConfig(case=case, x=x, count=grid)))


def sweep_csv_per_row(records) -> str:
    """The sweep CSV with one ``_SWEEP_ROW %`` per record, kept as the
    reference for the block formatting of ``cli._sweep_csv``."""
    return SWEEP_HEADER + "\n" + "".join([
        cli._SWEEP_ROW % (
            r.case, cli._fmt(r.x), r.lam, r.outcome, r.pair, r.probability, r.negativity,
            r.steering2, r.steering3, r.nonlocality, r.M, r.Lambda3,
        )
        for r in records
    ])


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 1.0, 2.0, -3.0, 1e15, 0.25])
SWEEP_FLOATS = EDGE_FLOATS | st.floats()
SWEEP_RECORDS = st.builds(
    SweepRecord,
    case=st.sampled_from(CASES),
    x=st.none() | SWEEP_FLOATS,
    lam=SWEEP_FLOATS,
    outcome=st.integers(1, 16),
    pair=st.sampled_from(PAIRS),
    probability=SWEEP_FLOATS,
    negativity=SWEEP_FLOATS,
    steering2=SWEEP_FLOATS,
    steering3=SWEEP_FLOATS,
    nonlocality=SWEEP_FLOATS,
    M=SWEEP_FLOATS,
    Lambda3=SWEEP_FLOATS,
)


def assert_same_rows(got: str, want: str) -> None:
    """``got == want``, failing on the line count and the first line that
    differs: pytest's diff of two long texts would take minutes."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(got))
    assert (len(got), first, got[first:first + 1]) == (len(want), first, want[first:first + 1])


def _block_sizes(block: int) -> list[int]:
    return [0, 1, block - 1, block, block + 1, 2 * block + 1]


def _tiled(drawn, count: int, x: str) -> list:
    """``count`` records cycling through ``drawn``, with x as drawn, one
    shared object, or alternating 0.0 and -0.0 (equal, but printed as "0"
    and "-0")."""
    records = [drawn[i % len(drawn)] for i in range(count)]
    if x == "shared":
        return [dataclasses.replace(r, x=drawn[0].x) for r in records]
    if x == "zeros":
        return [dataclasses.replace(r, x=(0.0, -0.0)[i % 2]) for i, r in enumerate(records)]
    return records


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(SWEEP_RECORDS, min_size=1, max_size=12),
    count=st.sampled_from(_block_sizes(3)),
    x=st.sampled_from(["drawn", "shared", "zeros"]),
)
def test_block_formatted_rows_match_one_row_per_record(drawn, count, x):
    # Three rows per block, so a few drawn records cross block boundaries.
    records = _tiled(drawn, count, x)
    with mock.patch.object(cli, "_SWEEP_BLOCK", 3):
        assert_same_rows(cli._sweep_csv(records), sweep_csv_per_row(records))


@pytest.mark.parametrize("count", _block_sizes(cli._SWEEP_BLOCK))
@pytest.mark.parametrize("x", ["drawn", "shared", "zeros"])
def test_rows_around_the_block_size_match_one_row_per_record(count, x):
    drawn = [
        SweepRecord("II", x0, lam, outcome, pair, 0.25, -0.0, 1e-300, 1e300, 2.0, lam, 1 / 3)
        for x0, lam, outcome, pair in [
            (None, 0.0, 1, "14"), (0.3, 1e-300, 2, "12"), (-0.0, 1.0, 3, "34"), (1e300, 0.5, 4, "14"),
        ]
    ]
    records = _tiled(drawn, count, x)
    assert_same_rows(cli._sweep_csv(records), sweep_csv_per_row(records))


@settings(max_examples=2000, deadline=None)
@given(st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
))
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
def test_percent_template_formats_floats_as_format(v):
    assert "%.12g" % v == format(v, ".12g")


def test_sweep_case1_has_empty_x_column(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--case", "I", "--grid", "2")
    row = next(csv.DictReader(StringIO(out)))
    assert row["x"] == ""


def test_sweep_writes_file_atomically(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "sweep", "--case", "I", "--grid", "3", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 4 * 3
    assert not list(tmp_path.glob("*.tmp"))


def test_emit_removes_its_temp_file_when_the_write_or_rename_fails(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(UnicodeEncodeError):
        cli._emit("\ud800", str(target))  # a lone surrogate cannot be encoded
    assert list(tmp_path.iterdir()) == []
    with mock.patch.object(cli.os, "replace", side_effect=OSError(errno.EIO, "replace failed")):
        with pytest.raises(OSError, match="replace failed"):
            cli._emit("text\n", str(target))
    assert list(tmp_path.iterdir()) == []


def test_sweep_into_a_missing_directory_names_the_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sweep", "--case", "I", "--grid", "2", "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(target)!r}\n"
    assert list(tmp_path.rglob("*")) == []


def test_sweep_onto_a_directory_names_the_out_path(tmp_path, capsys):
    # The rename of the temp file onto the directory fails.
    code, out, err = run_cli(capsys, "sweep", "--case", "I", "--grid", "2", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"
    assert list(tmp_path.rglob("*")) == []


def test_sweep_to_an_empty_out_path_exits_one(tmp_path, monkeypatch, capsys):
    # The temp file of '' once went to the parent of the working directory.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run_cli(capsys, "sweep", "--case", "I", "--grid", "2", "--out", "")
    assert code == 1 and out == ""
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n"
    assert list(tmp_path.rglob("*")) == [work]


def test_sweep_compute_error_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--case", "I", "--x", "0.3", "--out", str(target)
    )
    assert code == 1
    assert "case I has no x" in err
    assert not target.exists()


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # --case missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--case", "V"])
    assert exc.value.code == 2


def test_thresholds_text_contains_interval_values(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--case", "I")
    assert code == 0
    for value in ("0.333333", "0.577350", "0.707107", "0.910684", "0.748610", "0.624519"):
        assert value in out


def test_thresholds_csv_and_coarse_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "thresholds", "--case", "I", "--format", "csv",
        "--grid", "21", "--tol", "1e-3",
    )
    assert code == 0
    rows = {(r["pair"], r["measure"]): r for r in csv.DictReader(StringIO(out))}
    assert rows[("14", "negativity")]["pattern"] == "above"
    assert abs(float(rows[("14", "negativity")]["threshold"]) - 1 / 3) < 1e-3
    assert abs(float(rows[("12", "nonlocality")]["threshold"]) - 0.6245192) < 1e-3


@pytest.mark.parametrize(
    "command, text",
    [
        ("thresholds", "--tol TOL bisection tolerance in lambda of the interval ends"),
        ("sweep", "--tol TOL classification tolerance"),
    ],
)
def test_tol_help_says_what_each_command_does_with_it(capsys, command, text):
    # thresholds passes --tol to classify_table as root_tol, the bisection tolerance.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


def test_analyze_projective_swap(tmp_path, capsys):
    path = tmp_path / "projective.json"
    path.write_text(json.dumps(povm_to_dict(werner_bell_povm(1.0))))
    code, out, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 0 and err == ""
    assert "probability 0.25" in out
    assert "nonlocal" in out


def test_analyze_csv_flags_nonlocal_pair(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(povm_to_dict(asymmetric_povm(0.8, 0.5))))
    code, out, _ = run_cli(capsys, "analyze", "--povm", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(StringIO(out)))
    assert len(rows) == 4 * 3
    for row in rows:
        expected = "true" if row["pair"] == "14" else "false"
        assert row["nonlocal"] == expected
        assert row["entangled"] == "true"


def test_analyze_invalid_povm_exits_three(tmp_path, capsys):
    path = tmp_path / "double.json"
    path.write_text(json.dumps(povm_to_dict(Povm((I4, I4), label="double"))))
    code, _, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 3
    assert "completeness" in err


def test_analyze_structural_error_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"label": "broken", "effects": [[[0.0]]]}))
    code, _, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 3
    assert "effect 1" in err


def test_analyze_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "--povm", "/nonexistent/p.json")
    assert code == 1
    assert "cannot read" in err


def test_verify_all_cases_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "11")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_the_preset_cases_are_one_list(capsys):
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in ("sweep", "thresholds", "verify"):
        (case,) = [a for a in commands[command]._actions if a.dest == "case"]
        assert tuple(case.choices) == analysis.PRESETS
    code, out, _ = run_cli(capsys, "verify", "--grid", "2")
    assert code == 0
    assert tuple(line.split()[1].rstrip(":") for line in out.splitlines()) == analysis.PRESETS
    assert CASES == (*analysis.PRESETS, "custom")


def test_verify_detects_injected_fault(monkeypatch, capsys):
    real = analysis._closed_form_core

    def corrupted(x, lam):
        return tuple((negativity + 1e-5, t) for negativity, t in real(x, lam))

    monkeypatch.setattr(analysis, "_closed_form_core", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--case", "I", "--grid", "5")
    assert code == 1
    assert "FAIL" in out


def test_analyze_non_finite_povm_exits_three(tmp_path, capsys):
    payload = povm_to_dict(werner_bell_povm(0.5))
    payload["effects"][2][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))  # writes the NaN token
    code, out, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 3 and out == ""
    assert "effect 3, row 0, column 0" in err


@settings(max_examples=100, deadline=None)
@given(malformed_povm_payloads())
def test_analyze_malformed_povm_exits_three(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "bad.json"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)  # writes NaN and Infinity tokens as they are
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["analyze", "--povm", path, "--out", target, "--format", "csv"])
        assert code == 3 and out.getvalue() == ""
        assert err.getvalue().startswith("invalid POVM: ")
        assert "Traceback" not in err.getvalue()
        assert os.listdir(tmp) == ["bad.json"]


@pytest.mark.parametrize("command", ["sweep", "thresholds", "verify"])
@pytest.mark.parametrize("grid, message", [
    pytest.param(g, f"grid needs at least 2 points, got {g}", id=g) for g in ("0", "1", "-3")
] + [
    # Also a count numpy cannot hold. 10**20 points fail before anything is
    # allocated; never test a count that allocates.
    pytest.param(str(10**20), f"grid of {10**20} points is beyond numpy's largest array", id="1e20"),
])
def test_grid_below_two_points_exits_one(command, grid, message, capsys):
    args = [command, "--case", "I", "--grid", grid]
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


# The numeric flags of each subcommand, after flags that keep a run small.
_NUMERIC_FLAGS = {
    ("sweep", "--case", "II", "--grid", "5"): ("--x", "--tol", "--lambda-start",
                                                "--lambda-stop", "--grid"),
    ("thresholds", "--case", "II", "--grid", "5"): ("--x", "--tol", "--grid"),
    ("analyze", "--povm"): ("--tol",),
    ("verify", "--case", "II", "--grid", "5"): ("--grid",),
}
# The (flag, value) pairs in range, which a command accepts.
_IN_RANGE = {("--x", "0"), ("--lambda-start", "0"), ("--lambda-stop", "0"), ("--tol", str(10**20))}


def test_numeric_flags_at_their_extremes_exit_with_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(povm_to_dict(werner_bell_povm(0.5))))
    for base, flags in _NUMERIC_FLAGS.items():
        base = [*base, str(path)] if base[0] == "analyze" else list(base)
        for flag in flags:
            for value in ("nan", "inf", "-inf", "-1", "0", str(10**20)):
                # A later flag overrides the base; "=" keeps "-inf" a value.
                argv = [*base, f"{flag}={value}"]
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the value
                    code = exc.code
                err = capsys.readouterr().err
                assert "Traceback" not in err, argv
                if (flag, value) in _IN_RANGE:
                    assert code == 0, (argv, err)
                else:
                    assert code in (1, 2), argv
                    assert err.splitlines()[-1].startswith(("error: ", "usage: ", "entswap ")), argv


@pytest.mark.parametrize(
    "command, tol",
    [
        ("analyze", "nan"),
        ("analyze", "0"),
        ("analyze", "-1"),
        ("sweep", "nan"),
        ("sweep", "inf"),
        ("thresholds", "0"),
        ("thresholds", "-1"),
        ("thresholds", "nan"),
    ],
)
def test_bad_tolerance_exits_one(command, tol, tmp_path, capsys):
    if command == "analyze":
        # Pair (1,4) of outcome 1 has negativity 0.25 here.
        path = tmp_path / "werner.json"
        path.write_text(json.dumps(povm_to_dict(werner_bell_povm(0.5))))
        args = ["analyze", "--povm", str(path)]
    else:
        args = [command, "--case", "I", "--grid", "5"]
    code, out, err = run_cli(capsys, *args, "--tol", tol)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: tolerance must be positive and finite, got {float(tol)}"]


def test_linalg_error_exits_one(monkeypatch, capsys):
    def fails(args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("entswap.cli._cmd_sweep", fails)
    code, out, err = run_cli(capsys, "sweep", "--case", "I")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: Eigenvalues did not converge"]


def test_out_of_memory_exits_one(monkeypatch, capsys):
    def fails(args):
        raise MemoryError("Unable to allocate 8.00 PiB for an array")

    monkeypatch.setattr("entswap.cli._cmd_sweep", fails)
    code, out, err = run_cli(capsys, "sweep", "--case", "I")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: Unable to allocate 8.00 PiB for an array"]


def test_analyze_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read POVM file: 'utf-8' codec can't decode byte 0xe9")
    assert len(err.splitlines()) == 1


def test_analyze_deeply_nested_file_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read POVM file: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1


def test_analyze_integer_beyond_float_range_exits_three(tmp_path, capsys):
    payload = povm_to_dict(werner_bell_povm(0.5))
    payload["effects"][1][3][0] = [1, 10**400]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "analyze", "--povm", str(path))
    assert code == 3 and out == ""
    assert err == (
        "invalid POVM: effect 2, row 3, column 0: "
        "expected an [re, im] pair of finite numbers\n"
    )


def _in_process(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-m", "entswap.cli", *argv], capture_output=True, env=env, check=False
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_shared_parser_leaks_nothing_between_calls(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    path = tmp_path / "werner.json"
    path.write_text(json.dumps(povm_to_dict(werner_bell_povm(0.5))))
    calls = [
        ["sweep", "--case", "II", "--x", "0.5", "--grid", "3", "--tol", "1e-6"],
        ["sweep", "--case", "II", "--grid", "3"],
        ["sweep", "--case", "V"],
        ["analyze", "--povm", str(path), "--format", "csv"],
        ["analyze", "--povm", str(path)],
        ["thresholds", "--case", "I", "--grid", "5"],
    ]
    results = [_in_process(argv) for argv in calls]
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 0]
    assert results[0][1] != results[1][1]
    for argv, result in zip(calls, results):
        assert result == _fresh_process(argv), argv

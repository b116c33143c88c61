"""Command-line front end: sweeps to CSV, threshold tables, custom-POVM
analysis from JSON, and the analytic-vs-numeric verification suite.

Sweep rows are formatted in bulk, one ``%`` per block of rows.

Exit codes: 0 success, 1 compute error, 2 bad flags, 3 POVM validation
failure (analyze only).
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import operator
import os
import stat
import sys
from io import StringIO
from itertools import chain, repeat

import numpy as np

from . import analysis
from .errors import EntswapError, InvalidPovmError
from .measures import QUANTITIES
from .povm import povm_from_dict
from .swap import PAIRS, run_swap

# Sweep CSV columns, one per SweepRecord field (lam is lambda): where the row
# is, then the QUANTITIES columns.
SWEEP_HEADER = ",".join(("case", "x", "lambda", "outcome", "pair", "probability") + QUANTITIES)


def _fmt(value: float | None) -> str:
    """Format a float with 12 significant digits; None becomes empty."""
    if value is None:
        return ""
    return format(float(value), ".12g")


_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def _new_temp(directory: str) -> tuple[int, str]:
    """A new file of a random name in ``directory``, open for writing, and
    its path. It is created with mode 0o666, less the umask, as
    ``open(path, "w")`` creates a file; a name that exists is drawn again."""
    while True:
        path = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            return os.open(path, _TEMP_FLAGS, 0o666), path
        except FileExistsError:
            continue


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or as UTF-8 to the file ``out_path`` names.

    A path that exists and is not a regular file (a FIFO, a device, or a
    link to one) is opened and written as it is. Any other path is written
    atomically, a temp file beside it renamed over it, with the permission
    bits of the file it replaces, or for a new file those ``open(path, "w")``
    gives; a link, dangling or to a regular file, has its target written, so
    the link survives. An empty ``out_path`` raises before any file is made,
    and an OSError names ``out_path`` only; a failed write or rename removes
    the temp file."""
    if out_path is None:
        sys.stdout.write(text)
        return
    if not out_path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)
    target = out_path
    try:
        # lstat first: only a link pays for resolving its target.
        mode = os.lstat(out_path).st_mode
        if stat.S_ISLNK(mode):
            target = os.path.realpath(out_path)
            mode = os.stat(target).st_mode
        perms = mode & 0o777
    except OSError:  # missing, or unreachable: the temp file and rename report it
        mode, perms = stat.S_IFREG, None
    try:
        if not stat.S_ISREG(mode):
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        fd, tmp_path = _new_temp(os.path.dirname(os.path.abspath(target)))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, out_path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if perms is not None:
                os.fchmod(fd, perms)
            fh.write(text)
        os.replace(tmp_path, target)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, out_path) from exc
        raise


# One row of SWEEP_HEADER; '%.12g' % v equals _fmt(v) for every float v.
_SWEEP_ROW = "%s,%s,%.12g,%d,%s" + ",%.12g" * (1 + len(QUANTITIES)) + "\n"
# The record attributes of the SWEEP_HEADER columns, read as one tuple.
_SWEEP_COLUMNS = operator.attrgetter(*analysis._RECORD_FIELDS)
_SWEEP_WIDTH = len(analysis._RECORD_FIELDS)
# Rows per % call, so a long sweep's argument tuple and template stay small.
_SWEEP_BLOCK = 4096


def _sweep_csv(records) -> str:
    """The sweep CSV of a list of SweepRecords: SWEEP_HEADER, then one
    _SWEEP_ROW per record, formatted by one % per block of _SWEEP_BLOCK rows.
    The x column, one value in a sweep, is formatted once per block."""
    parts = [SWEEP_HEADER + "\n"]
    for start in range(0, len(records), _SWEEP_BLOCK):
        block = records[start:start + _SWEEP_BLOCK]
        cells = list(chain.from_iterable(map(_SWEEP_COLUMNS, block)))
        xs = cells[1::_SWEEP_WIDTH]
        shared = all(map(operator.is_, xs, repeat(xs[0])))
        cells[1::_SWEEP_WIDTH] = [_fmt(xs[0])] * len(xs) if shared else map(_fmt, xs)
        parts.append((_SWEEP_ROW * len(block)) % tuple(cells))
    return "".join(parts)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = analysis.SweepConfig(
        case=args.case, x=args.x, lambda_start=args.lambda_start, lambda_stop=args.lambda_stop,
        count=args.grid, tol=args.tol,
    )
    _emit(_sweep_csv(analysis.sweep(cfg)), args.out)
    return 0


def _unit_grid(count: int) -> np.ndarray:
    """``count`` evenly spaced lambdas on [0, 1], at least 2."""
    analysis._check_grid_size(count)
    return np.linspace(0.0, 1.0, count)


def _cmd_thresholds(args: argparse.Namespace) -> int:
    table = analysis.classify_table(args.case, args.x, _unit_grid(args.grid), root_tol=args.tol)
    x = analysis._resolve_x(args.case, args.x)
    if args.format == "csv":
        # The table is ordered by pair, then measure, as the rows are.
        lines = ["case,x,pair,measure,pattern,threshold"] + [
            f"{args.case},{_fmt(x)},{pair},{measure},{rng.kind},{_fmt(rng.threshold)}"
            for (pair, measure), rng in table.items()
        ]
    else:
        width = max(len(m) for m in analysis.MEASURES)
        lines = [f"case {args.case}" + (f" (x={_fmt(x)})" if x is not None else "")]
        for pair in PAIRS:
            lines.append(f"pair ({pair[0]},{pair[1]}):")
            for measure in analysis.MEASURES:
                rng = table[(pair, measure)]
                lines.append(f"  {measure:<{width}}  positive for {rng.describe()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# Each analyze flag and its QUANTITIES column, whose clamped value exceeds tol
# where the flag is set.
_FLAGS = tuple((flag, QUANTITIES.index(column)) for flag, column in (
    ("entangled", "negativity"), ("steerable", "steering3"), ("nonlocal", "nonlocality")))


def _analyze_text(p, outcomes, values, tol) -> str:
    lines = [f"POVM {p.label!r}: {len(p.effects)} effects, valid"]
    for outcome, rows in zip(outcomes, values.tolist()):
        lines.append(f"outcome {outcome.outcome_index}: probability {_fmt(outcome.probability)}")
        if outcome.degenerate:
            lines.append("  degenerate outcome, no conditional states")
            continue
        for pair, row in zip(PAIRS, rows):
            flags = ", ".join(name for name, column in _FLAGS if row[column] > tol)
            lines.append(
                f"  pair ({pair[0]},{pair[1]}): negativity={_fmt(row[0])} "
                f"S3={_fmt(row[2])} N={_fmt(row[3])} [{flags or 'uncorrelated'}]"
            )
    return "\n".join(lines) + "\n"


_ANALYZE_HEADER = ",".join(
    ("label", "outcome", "pair", "probability", *QUANTITIES, *(flag for flag, _ in _FLAGS))
)
# One row of _ANALYZE_HEADER, the label already quoted; '%.12g' % v equals _fmt(v).
_ANALYZE_ROW = "%s,%d,%s,%.12g" + ",%.12g" * len(QUANTITIES) + ",%s" * len(_FLAGS) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of more than one field:
    quoted where it holds a comma, a quote or a line break."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _analyze_csv(p, outcomes, values, tol) -> str:
    # The label is user-controlled: csv quotes it, once per file.
    label = _csv_field(p.label)
    lines = [_ANALYZE_HEADER + "\n"]
    for outcome, rows in zip(outcomes, values.tolist()):
        if outcome.degenerate:
            continue
        where = (label, outcome.outcome_index)
        for pair, row in zip(PAIRS, rows):
            flags = [("false", "true")[row[column] > tol] for _, column in _FLAGS]
            lines.append(_ANALYZE_ROW % (*where, pair, outcome.probability, *row, *flags))
    return "".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    # ValueError covers bytes that are not UTF-8 and text that is not JSON;
    # the decoder recurses once per level of nesting.
    try:
        with open(args.povm, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read POVM file: {exc}", file=sys.stderr)
        return 1
    try:
        p = povm_from_dict(data)
    except InvalidPovmError as exc:
        print(f"invalid POVM: {exc}", file=sys.stderr)
        return 3
    try:
        outcomes = run_swap(p)
    except InvalidPovmError as exc:
        print("invalid POVM:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return 3
    values = analysis._outcome_values(p, outcomes, args.tol)
    render = _analyze_csv if args.format == "csv" else _analyze_text
    _emit(render(p, outcomes, values, args.tol), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cases = [args.case] if args.case else analysis.PRESETS
    grid = _unit_grid(args.grid)
    lines, all_passed = [], True
    for case in cases:
        rep = analysis.verify(case, grid=grid)
        all_passed &= rep.passed
        where = (
            f"lambda={_fmt(rep.worst_lam)} outcome={rep.worst_outcome} "
            f"pair={rep.worst_pair or '-'} quantity={rep.worst_quantity}"
        )
        x_note = f" (x={_fmt(rep.x)})" if rep.x is not None else ""
        lines.append(
            f"case {case}{x_note}: {rep.points} points, "
            f"max deviation {rep.max_deviation:.3e} at {where}: "
            + ("PASS" if rep.passed else "FAIL")
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the CLI, built on the first call.

    Every call returns the same shared parser, which callers must not
    mutate. It names the subcommand in ``command`` and binds no handler, so
    ``main`` dispatches to the ``_cmd_*`` function of that name at call time.
    """
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Generalized entanglement swapping: sweeps, thresholds, "
        "POVM analysis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_help):
        p.add_argument(
            "--case", choices=analysis.PRESETS, required=True,
            help="measurement family preset",
        )
        p.add_argument("--x", type=float, default=None, help="mixing weight override (cases II-IV)")
        p.add_argument("--tol", type=float, default=1e-9, help=tol_help)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="sweep a family over lambda, emit CSV")
    add_common(p_sweep, "classification tolerance")
    p_sweep.add_argument("--lambda-start", type=float, default=0.0)
    p_sweep.add_argument("--lambda-stop", type=float, default=1.0)
    p_sweep.add_argument("--grid", type=int, default=101, help="number of lambda points")

    p_thresh = sub.add_parser("thresholds", help="classification intervals per pair and measure")
    add_common(p_thresh, "bisection tolerance in lambda of the interval ends")
    p_thresh.add_argument("--grid", type=int, default=101, help="classification grid size")
    p_thresh.add_argument("--format", choices=("csv", "text"), default="text")

    p_analyze = sub.add_parser("analyze", help="run the protocol on a POVM from JSON")
    p_analyze.add_argument("--povm", required=True, help="path to a POVM JSON file")
    p_analyze.add_argument("--tol", type=float, default=1e-9)
    p_analyze.add_argument("--format", choices=("csv", "text"), default="text")
    p_analyze.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check closed forms against the numeric engine")
    p_verify.add_argument("--case", choices=analysis.PRESETS, default=None)
    p_verify.add_argument("--grid", type=int, default=101)
    p_verify.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep, "thresholds": _cmd_thresholds,
        "analyze": _cmd_analyze, "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    # A UnicodeEncodeError comes from stdout, whose encoding the locale sets.
    except (EntswapError, OSError, MemoryError, np.linalg.LinAlgError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

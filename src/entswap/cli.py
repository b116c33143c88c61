"""Command-line front end: sweeps to CSV, threshold tables, custom-POVM
analysis from JSON, and the analytic-vs-numeric verification suite.

Exit codes: 0 success, 1 compute error, 2 bad flags, 3 POVM validation
failure (analyze only).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import tempfile
from io import StringIO

import numpy as np

from . import analysis
from .errors import EntswapError, InvalidPovmError
from .povm import povm_from_dict
from .swap import PAIRS, run_swap

SWEEP_HEADER = (
    "case,x,lambda,outcome,pair,probability,"
    "negativity,steering2,steering3,nonlocality,M,Lambda3"
)


def _fmt(value: float | None) -> str:
    """Format a float with 12 significant digits; None becomes empty."""
    if value is None:
        return ""
    return format(float(value), ".12g")


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to a file (temp write, then rename).
    An error creating the temp file names ``out_path``, not the temp file."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp", text=True)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, out_path) from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# One row of SWEEP_HEADER; '%.12g' % v equals _fmt(v) for every float v.
_SWEEP_ROW = "%s,%s,%.12g,%d,%s" + ",%.12g" * 7 + "\n"


def _sweep_csv(records) -> str:
    return SWEEP_HEADER + "\n" + "".join([
        _SWEEP_ROW % (
            r.case, _fmt(r.x), r.lam, r.outcome, r.pair, r.probability, r.negativity,
            r.steering2, r.steering3, r.nonlocality, r.M, r.Lambda3,
        )
        for r in records
    ])


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = analysis.SweepConfig(
        case=args.case,
        x=args.x,
        lambda_start=args.lambda_start,
        lambda_stop=args.lambda_stop,
        count=args.grid,
        tol=args.tol,
    )
    _emit(_sweep_csv(analysis.sweep(cfg)), args.out)
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    analysis._check_grid_size(args.grid)
    grid = np.linspace(0.0, 1.0, args.grid)
    table = analysis.classify_table(args.case, args.x, grid, root_tol=args.tol)
    x = analysis._resolve_x(args.case, args.x)
    if args.format == "csv":
        lines = ["case,x,pair,measure,pattern,threshold"]
        for pair in PAIRS:
            for measure in analysis.MEASURES:
                rng = table[(pair, measure)]
                lines.append(
                    f"{args.case},{_fmt(x)},{pair},{measure},{rng.kind},{_fmt(rng.threshold)}"
                )
        _emit("\n".join(lines) + "\n", args.out)
        return 0
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
_FLAGS = (("entangled", 0), ("steerable", 2), ("nonlocal", 3))


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


def _analyze_csv(p, outcomes, values, tol) -> str:
    # labels are user-controlled and may contain commas, so quote properly
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        "label,outcome,pair,probability,negativity,steering2,steering3,"
        "nonlocality,M,Lambda3,entangled,steerable,nonlocal".split(",")
    )
    for outcome, rows in zip(outcomes, values.tolist()):
        if outcome.degenerate:
            continue
        for pair, row in zip(PAIRS, rows):
            writer.writerow(
                [
                    p.label,
                    str(outcome.outcome_index),
                    pair,
                    _fmt(outcome.probability),
                    *map(_fmt, row),
                    *(str(row[column] > tol).lower() for _, column in _FLAGS),
                ]
            )
    return buf.getvalue()


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
    values = analysis._outcome_values(outcomes, args.tol)
    render = _analyze_csv if args.format == "csv" else _analyze_text
    _emit(render(p, outcomes, values, args.tol), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cases = [args.case] if args.case else ["I", "II", "III", "IV"]
    analysis._check_grid_size(args.grid)
    grid = np.linspace(0.0, 1.0, args.grid)
    lines = []
    all_passed = True
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
            "--case", choices=("I", "II", "III", "IV"), required=True,
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
    p_verify.add_argument("--case", choices=("I", "II", "III", "IV"), default=None)
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
    except (EntswapError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

"""Command-line front end: sweeps to CSV, threshold tables, custom-POVM
analysis from JSON, and the analytic-vs-numeric verification suite.

Exit codes: 0 success, 1 compute error, 2 bad flags, 3 POVM validation
failure (analyze only).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from io import StringIO

import numpy as np

from . import analysis, measures
from .errors import EntswapError, InvalidPovmError
from .povm import povm_from_dict, validate
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
    """Write to stdout, or atomically to a file (temp write, then rename)."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _sweep_csv(records) -> str:
    buf = StringIO()
    buf.write(SWEEP_HEADER + "\n")
    for r in records:
        buf.write(
            ",".join(
                [
                    r.case,
                    _fmt(r.x),
                    _fmt(r.lam),
                    str(r.outcome),
                    r.pair,
                    _fmt(r.probability),
                    _fmt(r.negativity),
                    _fmt(r.steering2),
                    _fmt(r.steering3),
                    _fmt(r.nonlocality),
                    _fmt(r.M),
                    _fmt(r.Lambda3),
                ]
            )
            + "\n"
        )
    return buf.getvalue()


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


def _analyze_text(p, outcomes, tol) -> str:
    lines = [f"POVM {p.label!r}: {len(p.effects)} effects, valid"]
    for outcome in outcomes:
        lines.append(f"outcome {outcome.outcome_index}: probability {_fmt(outcome.probability)}")
        if outcome.degenerate:
            lines.append("  degenerate outcome, no conditional states")
            continue
        for pair in PAIRS:
            rep = measures.report(outcome.pair_state(pair), tol)
            flags = ", ".join(
                name
                for name, on in (
                    ("entangled", rep.entangled),
                    ("steerable", rep.steerable),
                    ("nonlocal", rep.nonlocal_),
                )
                if on
            )
            lines.append(
                f"  pair ({pair[0]},{pair[1]}): negativity={_fmt(rep.negativity)} "
                f"S3={_fmt(rep.S3)} N={_fmt(rep.N)} [{flags or 'uncorrelated'}]"
            )
    return "\n".join(lines) + "\n"


def _analyze_csv(p, outcomes, tol) -> str:
    # labels are user-controlled and may contain commas, so quote properly
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        "label,outcome,pair,probability,negativity,steering2,steering3,"
        "nonlocality,M,Lambda3,entangled,steerable,nonlocal".split(",")
    )
    for outcome in outcomes:
        if outcome.degenerate:
            continue
        for pair in PAIRS:
            rep = measures.report(outcome.pair_state(pair), tol)
            writer.writerow(
                [
                    p.label,
                    str(outcome.outcome_index),
                    pair,
                    _fmt(outcome.probability),
                    _fmt(rep.negativity),
                    _fmt(rep.S2),
                    _fmt(rep.S3),
                    _fmt(rep.N),
                    _fmt(rep.M),
                    _fmt(rep.Lambda3),
                    str(rep.entangled).lower(),
                    str(rep.steerable).lower(),
                    str(rep.nonlocal_).lower(),
                ]
            )
    return buf.getvalue()


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.povm, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read POVM file: {exc}", file=sys.stderr)
        return 1
    try:
        p = povm_from_dict(data)
    except InvalidPovmError as exc:
        print(f"invalid POVM: {exc}", file=sys.stderr)
        return 3
    problems = validate(p)
    if problems:
        print("invalid POVM:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 3
    outcomes = run_swap(p)
    render = _analyze_csv if args.format == "csv" else _analyze_text
    _emit(render(p, outcomes, args.tol), args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Generalized entanglement swapping: sweeps, thresholds, "
        "POVM analysis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, case_required=True):
        p.add_argument(
            "--case", choices=("I", "II", "III", "IV"), required=case_required,
            help="measurement family preset",
        )
        p.add_argument("--x", type=float, default=None, help="mixing weight override (cases II-IV)")
        p.add_argument("--tol", type=float, default=1e-9, help="classification tolerance")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_sweep = sub.add_parser("sweep", help="sweep a family over lambda, emit CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--lambda-start", type=float, default=0.0)
    p_sweep.add_argument("--lambda-stop", type=float, default=1.0)
    p_sweep.add_argument("--grid", type=int, default=101, help="number of lambda points")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_thresh = sub.add_parser("thresholds", help="classification intervals per pair and measure")
    add_common(p_thresh)
    p_thresh.add_argument("--grid", type=int, default=101, help="classification grid size")
    p_thresh.add_argument("--format", choices=("csv", "text"), default="text")
    p_thresh.set_defaults(handler=_cmd_thresholds)

    p_analyze = sub.add_parser("analyze", help="run the protocol on a POVM from JSON")
    p_analyze.add_argument("--povm", required=True, help="path to a POVM JSON file")
    p_analyze.add_argument("--tol", type=float, default=1e-9)
    p_analyze.add_argument("--format", choices=("csv", "text"), default="text")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="check closed forms against the numeric engine")
    p_verify.add_argument("--case", choices=("I", "II", "III", "IV"), default=None)
    p_verify.add_argument("--grid", type=int, default=101)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (EntswapError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

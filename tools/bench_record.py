"""Alternating parent/change runs of the benchmark, recorded as one JSON file.

    mkdir -p /tmp/parent && git archive HEAD~1 | tar x -C /tmp/parent
    python3 tools/bench_record.py --parent /tmp/parent --workload threshold_scan \
        --pairs 10 --seconds 20 --seed 900 --out BENCH.json

Run from the repository root. Each pair runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` unchanged, once in the working tree (the
change) and once in the ``--parent`` directory, with seed S = --seed + pair
index; even pairs run the change first, odd pairs the parent. Each run's
full record, ``perfbench/_out/W-trace0.json``, is copied to ``--runs-dir``
before the next run of that tree overwrites it.

``--anchor DIR`` adds a third tree to every pair, a fixed older commit: even
pairs run the change, the parent, then the anchor, odd pairs the reverse.
A drift that every change of a series makes too small to see still shows
against a tree that does not move.

The output holds, per workload and end-to-end metric of ``BENCHMARK.json``:
every pair's values, each side's median and quartiles, the parent's
interquartile range, the change's wins out of the pairs (ties count for
neither side), the gain rule (wins in at least nine tenths of the pairs and
medians apart by more than the parent's IQR) and the relative worsening
against the metric's bound; with an anchor, ``against_anchor`` holds the
same comparison with the anchor in the parent's place. It also holds each
run's ``correct`` and ``failed``, and the two values that tell a program
change from a change of the benchmark's speed scaling: the median of the
run's reference kernel (``reference_kernel_ms``) and its unscaled
``wall.task_p50_ms``. Last come the commits, the versions, nproc, each
side's BLAS thread settings (the ``*_NUM_THREADS`` variables of its runs),
the seeds and the seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Lines of a failed run's stderr that its error quotes.
STDERR_LINES = 20


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One untraced benchmark run in ``tree``: its result line and the path of its
    record. A run that exits non-zero raises RuntimeError naming the tree, the
    workload, the seed and the exit code, with the last lines of its stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        raise RuntimeError(f"perfbench/run.py in {tree} (workload {workload}, seed {seed}) "
                           f"exited {done.returncode}; the end of its stderr:\n{tail}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, os.path.join(tree, "perfbench", "_out", f"{workload}-trace0.json")


def _git(*args: str) -> str:
    """Output of a git command in the working tree, or "" where git fails."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The comparison of one metric over the pairs, ``metric`` its BENCHMARK.json entry."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    iqr = p3 - p1
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "parent_iqr": iqr,
        "wins": f"{wins}/{len(parent)}",
        "gain_holds": wins >= 0.9 * len(parent) and sign * (pm - cm) > iqr,
        "worse_by": worse_by,
        "bound": metric["bound"],
        "within_bound": worse_by <= metric["bound"],
    }


def record(parent_dir: str, workloads: list[str], pairs: int, seconds: float, seed: int,
           runs_dir: str, run=run_once, anchor_dir: str | None = None) -> dict:
    """Run the pairs of every workload and return the comparison record; the
    commits are those each side's runs report (the parent's is None or a
    placeholder outside a git checkout). ``anchor_dir`` adds the anchor's runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = {"anchor": anchor_dir} if anchor_dir else {}
    trees |= {"parent": parent_dir, "change": ROOT}
    sides = tuple(trees)
    os.makedirs(runs_dir, exist_ok=True)
    out = {"workloads": {}, "seconds": seconds, "seeds": [seed + i for i in range(pairs)]}
    meta = {}
    for workload in workloads:
        runs = []
        for i in range(pairs):
            pair = {}
            for side in sides[::-1] if i % 2 == 0 else sides:
                result, path = run(trees[side], workload, seed + i, seconds)
                kept = os.path.join(runs_dir, f"{workload}-{side}-{i:02d}.json")
                shutil.copyfile(path, kept)
                with open(kept, encoding="utf-8") as fh:
                    full = json.load(fh)
                meta[side] = full["metadata"]
                pair[side] = {"first": not pair, "correct": result["correct"],
                              "failed": result["failed"], "attempted": result["attempted"],
                              "reference_kernel_ms": full["reference_kernel_ms"]["median"],
                              "wall_task_p50_ms": full["wall"]["task_p50_ms"],
                              "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            runs.append(pair)
        entry = out["workloads"][workload] = {
            "runs": [{s: {k: v for k, v in pair[s].items() if k != "metrics"} for s in sides}
                     for pair in runs],
        }
        for key, base in (("metrics", "parent"), ("against_anchor", "anchor")):
            if base in trees:
                entry[key] = {
                    m["name"]: summarize(m, *([pair[s]["metrics"][m["name"]] for pair in runs]
                                              for s in (base, "change")))
                    for m in metrics
                }
    out["commits"] = {s: meta[s].get("git_commit") for s in sides}
    out["change_uncommitted"] = bool(_git("status", "--porcelain", "--untracked-files=no"))
    out["versions"] = {k: meta["change"].get(k) for k in ("python", "numpy", "scipy", "entswap")}
    out["nproc"] = meta["change"].get("nproc")
    out["blas_threads"] = {s: meta[s].get("blas_threads") for s in sides}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="extracted parent tree")
    parser.add_argument("--parent-commit", help="the parent's commit, if its tree has no .git")
    parser.add_argument("--anchor", help="extracted tree of a fixed older commit, run each pair")
    parser.add_argument("--anchor-commit", help="the anchor's commit, if its tree has no .git")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--runs-dir", default="bench_runs", help="where run records are kept")
    args = parser.parse_args(argv)
    anchor = args.anchor and os.path.abspath(args.anchor)
    result = record(os.path.abspath(args.parent), args.workload, args.pairs, args.seconds,
                    args.seed, args.runs_dir, anchor_dir=anchor)
    for side in ("parent", "anchor"):
        if getattr(args, f"{side}_commit"):
            result["commits"][side] = getattr(args, f"{side}_commit")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for workload, entry in result["workloads"].items():
        for base, key in (("parent", "metrics"), ("anchor", "against_anchor")):
            for name, m in entry.get(key, {}).items():
                print(f"{workload:<15} {name:<13} {base} {m['parent']['median']:.4g} "
                      f"change {m['change']['median']:.4g} wins {m['wins']} "
                      f"iqr {m['parent_iqr']:.3g} worse_by {m['worse_by']:+.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

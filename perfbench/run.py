"""Benchmark of the entswap library and CLI.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. Each workload is a closed loop with one
client on one thread: the next task starts when the previous one returns.

* ``sweep_grid``: ``entswap sweep`` over a seeded case, x and lambda
  interval, a few dozen grid points; every CSV row is checked against the
  closed forms.
* ``threshold_scan``: ``find_threshold`` on seeded (case, x, pair, measure,
  bracket) draws with one sign change; the root is checked against the
  root of the closed-form signed quantity.
* ``custom_povm``: ``entswap analyze`` on seeded JSON POVMs, one in ten
  malformed; exit codes, probabilities tr(E)/4 and the (1,4) quantifiers
  of ``rho14_spectral`` are checked.

Inputs are generated from ``--seed`` before any timing. The library is
imported from ``src/`` of the checkout and called only through its public
functions and an in-process ``entswap.cli.main``. With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` every task runs
twice, untraced and traced, and the last line holds the per-layer metrics
and the tracing overhead (the drop in tasks per second when traced). Times
are scaled to a reference machine speed (see REF_S). Every run also writes
its full record (all metrics, raw wall-clock figures, counters with their
bases, run metadata) to ``perfbench/_out/<workload>-trace<0|1>.json``, and a
traced run its spans to ``perfbench/_out/spans-<workload>.jsonl``.

What each layer metric should move, written down before any optimisation:

* ``states.validations_per_state`` (3737/1212 on a 101-point sweep) and
  ``states.check_density_matrix`` self time: ``pair_states_per_s`` on
  sweep_grid and custom_povm.
* ``linalg.eig_calls``, ``measures.report`` and ``swap.run_swap`` self time:
  ``pair_states_per_s`` and ``task_p50_ms`` on sweep_grid; batching them
  should not move custom_povm.
* ``swap.pair_state_use_ratio`` (1/12 on threshold_scan, 1 on sweep_grid)
  and ``analysis.evals_per_root``: ``task_p50_ms`` on threshold_scan, not on
  sweep_grid.
* ``cli.build_parser`` total and ``cli.main`` self time,
  ``povm.validations_per_povm`` (2 for a valid POVM): ``task_p50_ms`` and
  ``tasks_per_s`` on custom_povm, not on sweep_grid.
* Import cost (not traced): ``setup_s`` on every workload.

Known defect kept visible: POVM files with NaN entries end in an uncaught
``LinAlgError`` instead of exit 3. Those inputs are run once per run, outside
the timed loop, and reported under ``known_defect`` and
``error_rate_incl_nonfinite`` in the full record.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
WORK = os.path.join(BENCH, "_work")

WORKLOADS = ("sweep_grid", "threshold_scan", "custom_povm")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The speed of a shared host drifts by tens of percent within a minute (a
# fixed sweep took from 34 to 58 ms across 5-second windows on a 2-vCPU VM),
# more than any bound could absorb. So the loop times a fixed reference
# kernel between tasks, at most every REF_EVERY_S, and scales each task time
# by REF_S over the median of the five kernel timings nearest to it. Set-up
# time is scaled by REF_S over the median of all the run's kernel timings.
# Times are reported as seconds on a machine where the kernel takes REF_S
# (about its median on that VM); the raw wall-clock figures are kept in the
# full record under "wall".
REF_S = 4.0e-3
REF_EVERY_S = 0.1
REF_REPS = 40

END_TO_END = {
    "setup_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "tasks_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics on the last line of a traced run: the ones every
# workload reaches, normalised per traced task so that a faster program,
# which fits more tasks into the same seconds, reads lower, not higher.
PER_TASK_SELF = (
    "swap.run_swap", "povm.validate", "states.initial_four_qubit",
    "states.check_density_matrix", "measures.correlation_spectrum",
    "measures.negativity_signed", "linalg.psd_sqrt", "linalg.partial_trace",
    "linalg.hermitian_eig",
)
PER_TASK_COUNTS = (
    "swap.run_swap.calls", "linalg.eig_calls", "linalg.eig_matrices", "swap.pair_states_built",
)
RATIOS = ("swap.pair_state_use_ratio", "states.validations_per_state", "povm.validations_per_povm")
PER_LAYER = {
    **{f"{f}.self_ms_per_task": "ms" for f in PER_TASK_SELF},
    **{f"{c}_per_task": "count" for c in PER_TASK_COUNTS},
    **dict.fromkeys(RATIOS, "ratio"),
    "trace.overhead_pct": "%",
}

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas() -> None:
    for var in _BLAS_VARS:
        os.environ[var] = str(_nproc())


def _import_program():
    """Import entswap from this checkout's src/, or exit 2 when it is absent."""
    init = os.path.join(SRC, "entswap", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no entswap sources at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import entswap
    import entswap.cli

    if os.path.abspath(entswap.__file__) != init:
        print(f"error: imported entswap from {entswap.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return entswap


def run_task(es, task: dict):
    """One call into the library: an exit code, or a ThresholdResult."""
    if task["kind"] == "cli":
        try:
            return es.cli.main(task["argv"])
        except SystemExit as exc:
            return exc.code
    a = task["args"]
    return es.find_threshold(a["case"], a["x"], a["pair"], a["measure"], tuple(a["bracket"]), tol=a["tol"])


def reference_kernel() -> float:
    """Seconds taken by fixed small-matrix numpy and Python work, the same
    kind of work the program does per call."""
    import numpy as np

    m = np.arange(16, dtype=complex).reshape(4, 4)
    m = m + m.conj().T
    eye = np.eye(2, dtype=complex)
    start = perf_counter()
    for _ in range(REF_REPS):
        vals, vecs = np.linalg.eigh(m)
        k = np.kron(np.kron(eye, vecs * vals), eye)
        joint = k @ k.conj().T
        float(np.trace(joint).real)
        np.trace(joint.reshape(4, 4, 4, 4), axis1=1, axis2=3)
        float(np.abs(m - m.conj().T).max())
    return perf_counter() - start


class Speed:
    """Reference-kernel timings taken between tasks."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.at.append(perf_counter())
            self.took.append(reference_kernel())

    def scale(self, when: float) -> float:
        """Factor that turns a wall time taken at ``when`` into reference time."""
        j = bisect.bisect(self.at, when)
        return REF_S / statistics.median(self.took[max(0, j - 3): j + 2])


def _setup_probe(task_path: str) -> None:
    """Child process: time ``import entswap`` plus the workload's first task."""
    with open(task_path, encoding="utf-8") as fh:
        task = json.load(fh)
    start = perf_counter()
    es = _import_program()
    run_task(es, task)
    print(json.dumps({"setup_s": perf_counter() - start}))


def _setup_times(task: dict, work: str) -> list[float]:
    path = os.path.join(work, "setup-task.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: task[k] for k in ("kind", "argv", "args") if k in task}, fh)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", path],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        if task.get("out") and os.path.exists(task["out"]):
            os.remove(task["out"])
    return times


class Phase:
    """Latencies and check outcomes of one measured loop."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.rows = 0
        self.failures: list[str] = []
        self.failed_inputs: set[int] = set()
        self.nonmonotone = 0


def _attempt(es, workloads, name: str, index: int, task: dict, phase: Phase, tracer=None) -> float:
    """Run one task (timed, traced if a tracer is given), then check its
    output (untimed, untraced). Returns the latency."""
    saved = sys.stderr
    sys.stderr = io.StringIO()
    if tracer is not None:
        tracer.start_task(index)
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            try:
                result = run_task(es, task)
            except Exception as exc:  # a raising task is a failed task, not a crash
                result = exc
            took = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stderr = saved
    phase.starts.append(start)
    phase.latencies.append(took)
    phase.nonmonotone += sum(issubclass(w.category, es.NonMonotoneWarning) for w in caught)
    text = None
    if task.get("out") and os.path.exists(task["out"]):
        with open(task["out"], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(task["out"])
    if isinstance(result, Exception):
        problem = f"raised {type(result).__name__}: {result}"
    else:
        try:
            problem = workloads.CHECKS[name](task, result, text)
        except (IndexError, ValueError) as exc:  # rows too short, or not numbers
            problem = f"malformed output: {exc!r}"
    if problem is None:
        phase.rows += workloads.rows_of(name, task)
    else:
        phase.failures.append(f"task {index}: {problem}")
        phase.failed_inputs.add(task["pool_index"])
    return took


def _measure(es, workloads, name, tasks, seconds, speed, tracer=None) -> tuple[Phase, Phase]:
    """Cycle through the pool until ``seconds`` of task time are spent.

    With a tracer every task runs twice, untraced and traced, in alternating
    order, so the two phases see the same tasks under the same conditions.
    """
    plain, traced = Phase(), Phase()
    spent = 0.0
    i = 0
    while spent < seconds:
        task = tasks[i % len(tasks)]
        speed.sample()
        if tracer is None:
            spent += _attempt(es, workloads, name, i, task, plain)
        else:
            runs = ((plain, None), (traced, tracer))
            for phase, t in runs if i % 2 == 0 else runs[::-1]:
                spent += _attempt(es, workloads, name, i, task, phase, t)
        i += 1
    return plain, traced


def _latency_metrics(phase: Phase, scale=lambda when: 1.0) -> dict:
    lat = [took * scale(when) for when, took in zip(phase.starts, phase.latencies)]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    busy = sum(lat)
    return {
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_p90_ms": 1e3 * p90,
        "tasks_per_s": len(lat) / busy,
        "pair_states_per_s": phase.rows / busy,
        "samples_beyond_p90": sum(v > p90 for v in lat),
    }


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(es, name, seed, seconds, trace, pool_size) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "run_seconds": seconds,
        "traced": bool(trace),
        "nproc": _nproc(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entswap": es.__version__,
        "git_commit": _git_commit(),
        "pool_size": pool_size,
        "setup_probes": SETUP_PROBES,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    es = _import_program()
    import tracing
    import workloads

    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    clock = [("start", perf_counter())]
    try:
        pool = workloads.make_pool(name, seed, work)
        clock.append(("inputs", perf_counter()))
        for i, task in enumerate(pool):
            task["pool_index"] = i
        nonfinite = [t for t in pool if t["expect"].get("kind") == "non_finite"]
        tasks = [t for t in pool if t["expect"].get("kind") != "non_finite"]

        setup = _setup_times(tasks[0], work)
        clock.append(("setup", perf_counter()))
        warmup = Phase()
        _attempt(es, workloads, name, -1, tasks[0], warmup)
        tracer = tracing.Tracer() if trace else None
        speed = Speed()
        plain, traced = _measure(es, workloads, name, tasks, seconds, speed, tracer)
        phases = [warmup, plain, traced]
        clock.append(("loop", perf_counter()))

        probe = Phase()
        for task in nonfinite:
            _attempt(es, workloads, name, task["pool_index"], task, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.latencies) for p in phases)
    stats = _latency_metrics(plain, speed.scale)
    wall = _latency_metrics(plain)
    record = {
        "metadata": _metadata(es, name, seed, seconds, trace, len(pool)),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "setup_s": statistics.median(setup) * REF_S / statistics.median(speed.took),
            "task_p50_ms": stats["task_p50_ms"],
            "task_p90_ms": stats["task_p90_ms"],
            "tasks_per_s": stats["tasks_per_s"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rate": len(failures) / attempted,
        },
        "wall": {
            "setup_s": statistics.median(setup),
            **{k: wall[k] for k in ("task_p50_ms", "task_p90_ms", "tasks_per_s", "pair_states_per_s")},
        },
        "reference_kernel_ms": {
            "median": 1e3 * statistics.median(speed.took),
            "min": 1e3 * min(speed.took),
            "max": 1e3 * max(speed.took),
            "samples": len(speed.took),
        },
        "setup_s_samples": setup,
        "stage_wall_s": {k: t - clock[i][1] for i, (k, t) in enumerate(clock[1:])},
        "tasks_per_run": len(plain.latencies),
        "p90_samples_beyond": stats["samples_beyond_p90"],
        "analysis.nonmonotone_warnings": sum(p.nonmonotone for p in phases),
    }
    if name != "threshold_scan":
        record["end_to_end"]["pair_states_per_s"] = stats["pair_states_per_s"]
    if nonfinite:
        failed_inputs = set().union(*(p.failed_inputs for p in phases), probe.failed_inputs)
        record["known_defect"] = {
            "inputs": "POVM files with a NaN entry (expected exit 3)",
            "count": len(nonfinite),
            "share_of_inputs": len(nonfinite) / len(pool),
            "not_exit_3": len(probe.failures),
            "outcomes": probe.failures[:5],
        }
        record["error_rate_incl_nonfinite"] = len(failed_inputs) / len(pool)

    if trace:
        missing = tracer.missing(name)
        if missing:
            raise SystemExit(f"error: traced run recorded no calls of {', '.join(missing)}")
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{name}.jsonl"))
        layer = tracer.metrics()
        layer["analysis.nonmonotone_warnings"] = traced.nonmonotone
        layer["trace.tasks"] = n = len(traced.latencies)
        layer["trace.spans"] = len(tracer.spans)
        untraced_tps = wall["tasks_per_s"]
        traced_tps = _latency_metrics(traced)["tasks_per_s"]
        layer["trace.tasks_per_s_untraced"] = untraced_tps
        layer["trace.tasks_per_s_traced"] = traced_tps
        layer["trace.overhead_pct"] = 100.0 * (untraced_tps - traced_tps) / untraced_tps
        # Per-layer times are scaled like task times, so runs compare.
        to_ref = traced_tps / _latency_metrics(traced, speed.scale)["tasks_per_s"]
        for f in PER_TASK_SELF:
            layer[f"{f}.self_ms_per_task"] = 1e3 * layer[f"{f}.self_s"] * to_ref / n
        for c in PER_TASK_COUNTS:
            layer[f"{c}_per_task"] = layer[c] / n
        record["per_layer"] = layer
    return record


def _report(record: dict, trace: bool) -> None:
    """Human-readable lines, the full record file, then the result line."""
    meta = record["metadata"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  traced {meta['traced']}  "
          f"tasks {record['tasks_per_run']} (p90 has {record['p90_samples_beyond']} beyond)  "
          f"failed {record['failed']}/{record['attempted']}")
    units = {**END_TO_END, "pair_states_per_s": "1/s", "error_rate": "ratio"}
    for key, value in record["end_to_end"].items():
        print(f"  {key:<20} {value:.6g} {units[key]}")
    if "known_defect" in record:
        d = record["known_defect"]
        print(f"  known defect: {d['not_exit_3']}/{d['count']} NaN POVMs do not exit 3; "
              f"error_rate_incl_nonfinite {record['error_rate_incl_nonfinite']:.4g}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        for key, value in record["per_layer"].items():
            print(f"  {key:<52} {value:.6g}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{meta['workload']}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    wanted = PER_LAYER if trace else END_TO_END
    source = record["per_layer"] if trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": source[k], "unit": u} for k, u in wanted.items()},
    }))


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per workload)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="TASK_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _cap_blas()
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: each oracle flags a wrong result, the tracer
reaches every binding, and the metric names match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import numpy as np  # noqa: E402

import entswap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from entswap import analysis, cli, measures, states  # noqa: E402


@pytest.fixture(scope="module")
def work():
    path = os.path.join(run.WORK, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(task):
    """Run a task as the benchmark does; returns (result, output text)."""
    result = run.run_task(entswap, task)
    text = None
    if task.get("out") and os.path.exists(task["out"]):
        with open(task["out"], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(task["out"])
    return result, text


def test_sweep_check_flags_a_perturbed_row(work):
    pool = workloads.make_pool("sweep_grid", 3, work)
    task = min(pool, key=lambda t: len(t["expect"]["lams"]))
    code, text = _run(task)
    assert workloads.check_sweep(task, code, text) is None

    lines = text.splitlines()
    cols = lines[7].split(",")
    cols[8] = repr(float(cols[8]) + 1e-7)  # steering3
    lines[7] = ",".join(cols)
    problem = workloads.check_sweep(task, code, "\n".join(lines) + "\n")
    assert problem is not None and "steering3" in problem


def test_threshold_check_flags_a_shifted_root():
    pool = workloads.make_pool("threshold_scan", 3, "")
    task = pool[0]
    result, _ = _run(task)
    assert workloads.check_threshold(task, result, None) is None

    tol = task["args"]["tol"]
    shifted = dataclasses.replace(result, root=result.root + 10 * tol)
    problem = workloads.check_threshold(task, shifted, None)
    assert problem is not None and "closed form" in problem


def test_custom_check_flags_a_wrong_exit_code(work):
    pool = workloads.make_pool("custom_povm", 3, work)
    valid = next(t for t in pool if t["expect"]["kind"] == "degenerate")
    malformed = next(t for t in pool if t["expect"]["kind"] == "non_psd")
    for task in (valid, malformed):
        code, text = _run(task)
        assert workloads.check_custom(task, code, text) is None

    assert "exit code" in workloads.check_custom(malformed, 0, None)
    assert "exit code" in workloads.check_custom(valid, 3, None)


def test_tracer_wraps_every_lookup_and_restores_it():
    pool = workloads.make_pool("threshold_scan", 3, "")
    originals = (analysis.run_swap, states.check_density_matrix, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert analysis.run_swap is not originals[0]
        assert cli.run_swap is analysis.run_swap
        assert measures.check_density_matrix is states.check_density_matrix
        assert analysis._SIGNED["negativity"] is measures.negativity_signed
        assert np.linalg.eigh is not originals[2]
        for task in pool[:2]:  # one root of each family
            run.run_task(entswap, task)
    finally:
        tracer.uninstall()
    assert (analysis.run_swap, states.check_density_matrix, np.linalg.eigh) == originals
    assert tracer.missing("threshold_scan") == []
    layer = tracer.metrics()
    assert layer["swap.pair_state_use_ratio"] == pytest.approx(1 / 12)
    assert layer["analysis.evals_per_root.den"] == 2


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_program(work):
    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""The benchmark's tracer reaches every function each workload expects.

A traced benchmark run fails when an expected function records no call, for
example after a caller starts to look a function up under another name.
This runs valid tasks of each workload under the tracer, up to the first
few, until every expected function has been called: each task uses one
POVM family, so one task alone cannot reach both builders.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import entswap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_a_few_tasks_reach_every_traced_function(workload, tmp_path):
    pool = workloads.make_pool(workload, 3, str(tmp_path))
    valid = [task for task in pool if task["expect"].get("exit", 0) == 0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, task in enumerate(valid[:8]):
            tracer.start_task(index)
            run.run_task(entswap, task)
            if not tracer.missing(workload):
                break
    finally:
        tracer.uninstall()
    assert tracer.missing(workload) == []

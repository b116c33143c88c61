"""The pair recorder ``tools/bench_record.py`` on stubbed benchmark runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    METRICS = [m["name"] for m in json.load(fh)["end_to_end"]]


def stub_runs(tmp_path, p50):
    """A stand-in for ``run_once``: the change's p50 of pair i is p50[i], the
    parent's 2.4 ms; each call writes a record, as the benchmark does, and is
    logged. A record's reference kernel takes 3 + i ms and its unscaled p50 is
    twice the scaled one."""
    calls = []

    def run(tree, workload, seed, seconds):
        side = "change" if tree == bench_record.ROOT else "parent"
        i = seed - 100
        value = p50[i] if side == "change" else 2.4
        metrics = dict.fromkeys(METRICS, 1.0) | {"task_p50_ms": value, "tasks_per_s": 1e3 / value}
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({
            "metadata": {"seed": seed, "git_commit": side, "python": "3.x", "numpy": "n",
                         "scipy": "s", "entswap": "e", "nproc": 2},
            "reference_kernel_ms": {"median": 3.0 + i, "min": 1.0, "max": 9.0, "samples": 5},
            "wall": {"setup_s": 0.1, "task_p50_ms": 2 * value, "task_p90_ms": 9.0},
        }))
        calls.append((side, workload, seed, seconds))
        result = {"correct": True, "attempted": 10, "failed": i % 2,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
        return result, str(path)

    return run, calls


def test_pairs_alternate_and_the_record_holds_every_field(tmp_path):
    p50 = [2.2] * 9 + [2.5]  # the change loses the last pair
    run, calls = stub_runs(tmp_path, p50)
    runs_dir = tmp_path / "runs"
    out = bench_record.record(str(tmp_path / "parent"), ["threshold_scan"], 10, 3.0, 100,
                              str(runs_dir), run=run)
    assert [c[0] for c in calls[:4]] == ["change", "parent", "parent", "change"]
    assert [c[2] for c in calls[::2]] == list(range(100, 110))
    assert {c[3] for c in calls} == {3.0}
    assert sorted(os.listdir(runs_dir))[:2] == [
        "threshold_scan-change-00.json", "threshold_scan-change-01.json"]
    assert len(os.listdir(runs_dir)) == 20
    assert out["seeds"] == list(range(100, 110)) and out["seconds"] == 3.0
    assert out["commits"] == {"parent": "parent", "change": "change"}
    assert out["nproc"] == 2 and set(out["versions"]) == {"python", "numpy", "scipy", "entswap"}
    entry = out["workloads"]["threshold_scan"]
    assert entry["runs"][1]["parent"] == {"first": True, "correct": True, "failed": 1,
                                          "attempted": 10, "reference_kernel_ms": 4.0,
                                          "wall_task_p50_ms": 4.8}
    assert entry["runs"][9]["change"]["reference_kernel_ms"] == 12.0
    assert entry["runs"][9]["change"]["wall_task_p50_ms"] == 5.0
    assert entry["runs"][0]["change"]["first"] and not entry["runs"][0]["parent"]["first"]
    assert set(entry["metrics"]) == set(METRICS)
    p = entry["metrics"]["task_p50_ms"]
    assert p["wins"] == "9/10" and p["gain_holds"]
    assert p["parent"] == {"median": 2.4, "q1": 2.4, "q3": 2.4} and p["parent_iqr"] == 0.0
    assert p["change"]["median"] == pytest.approx(2.2)
    assert p["pairs"][9] == {"parent": 2.4, "change": 2.5}
    assert p["worse_by"] == pytest.approx(-0.2 / 2.4) and p["within_bound"]
    # Higher is better for throughput, so the same pairs win it too.
    assert entry["metrics"]["tasks_per_s"]["wins"] == "9/10"
    # Ties count for neither side.
    assert entry["metrics"]["setup_s"]["wins"] == "0/10"
    assert not entry["metrics"]["setup_s"]["gain_holds"]


def test_eight_wins_in_ten_make_no_gain(tmp_path):
    run, _ = stub_runs(tmp_path, [2.2] * 8 + [2.5] * 2)
    out = bench_record.record(str(tmp_path), ["sweep_grid"], 10, 1.0, 100,
                              str(tmp_path / "runs"), run=run)
    p = out["workloads"]["sweep_grid"]["metrics"]["task_p50_ms"]
    assert p["wins"] == "8/10" and not p["gain_holds"]

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


def stub_runs(tmp_path, p50, anchor=None):
    """A stand-in for ``run_once``: the change's p50 of pair i is p50[i], the
    parent's 2.4 ms and that of the tree ``anchor``, if given, 2.0 ms; each
    call writes a record, as the benchmark does, and is logged. A record's
    reference kernel takes 3 + i ms, its unscaled p50 is twice the scaled
    one, and the change runs BLAS on 2 threads, the other trees on 1."""
    calls = []

    def run(tree, workload, seed, seconds):
        side = {bench_record.ROOT: "change", anchor: "anchor"}.get(tree, "parent")
        i = seed - 100
        value = {"change": p50[i], "parent": 2.4, "anchor": 2.0}[side]
        metrics = dict.fromkeys(METRICS, 1.0) | {"task_p50_ms": value, "tasks_per_s": 1e3 / value}
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({
            "metadata": {"seed": seed, "git_commit": side, "python": "3.x", "numpy": "n",
                         "scipy": "s", "entswap": "e", "nproc": 2,
                         "blas_threads": {"OMP_NUM_THREADS": str(1 + (side == "change")),
                                          "MKL_NUM_THREADS": None}},
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
    assert out["blas_threads"] == {
        "parent": {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None},
        "change": {"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None},
    }
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


def test_an_anchor_runs_in_every_pair_and_is_compared_with_the_change(tmp_path):
    anchor = str(tmp_path / "anchor")
    run, calls = stub_runs(tmp_path, [2.2] * 4, anchor=anchor)
    runs_dir = tmp_path / "runs"
    out = bench_record.record(str(tmp_path / "parent"), ["custom_povm"], 4, 1.0, 100,
                              str(runs_dir), run=run, anchor_dir=anchor)
    assert [c[0] for c in calls[:6]] == ["change", "parent", "anchor", "anchor", "parent", "change"]
    assert [c[2] for c in calls[::3]] == [100, 101, 102, 103]
    assert len(os.listdir(runs_dir)) == 12 and "custom_povm-anchor-03.json" in os.listdir(runs_dir)
    assert out["commits"] == {"anchor": "anchor", "parent": "parent", "change": "change"}
    assert out["blas_threads"]["anchor"] == {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
    entry = out["workloads"]["custom_povm"]
    assert entry["runs"][0]["anchor"]["reference_kernel_ms"] == 3.0
    assert entry["metrics"]["task_p50_ms"]["wins"] == "4/4"
    against = entry["against_anchor"]["task_p50_ms"]
    assert against["parent"]["median"] == 2.0 and against["change"]["median"] == 2.2
    assert against["wins"] == "0/4" and against["worse_by"] == pytest.approx(0.1)
    assert against["within_bound"] and against["bound"] == 0.15

    run, _ = stub_runs(tmp_path, [2.2] * 4)
    plain = bench_record.record(str(tmp_path / "parent"), ["custom_povm"], 4, 1.0, 100,
                                str(runs_dir), run=run)
    assert "against_anchor" not in plain["workloads"]["custom_povm"]
    assert set(plain["commits"]) == {"parent", "change"}


def test_main_names_the_anchor_commit_and_prints_both_comparisons(tmp_path, monkeypatch, capsys):
    anchor = str(tmp_path / "anchor")
    run, _ = stub_runs(tmp_path, [2.2] * 2, anchor=anchor)
    record = bench_record.record
    monkeypatch.setattr(bench_record, "record", lambda *a, **k: record(*a, **k, run=run))
    path = tmp_path / "BENCH.json"
    assert bench_record.main([
        "--parent", str(tmp_path / "parent"), "--anchor", anchor, "--anchor-commit", "abc123",
        "--workload", "custom_povm", "--pairs", "2", "--seed", "100", "--out", str(path),
        "--runs-dir", str(tmp_path / "runs"),
    ]) == 0
    assert json.loads(path.read_text())["commits"]["anchor"] == "abc123"
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(METRICS)
    assert lines[len(METRICS)].startswith("custom_povm     setup_s       anchor ")


def test_eight_wins_in_ten_make_no_gain(tmp_path):
    run, _ = stub_runs(tmp_path, [2.2] * 8 + [2.5] * 2)
    out = bench_record.record(str(tmp_path), ["sweep_grid"], 10, 1.0, 100,
                              str(tmp_path / "runs"), run=run)
    p = out["workloads"]["sweep_grid"]["metrics"]["task_p50_ms"]
    assert p["wins"] == "8/10" and not p["gain_holds"]


def test_a_failed_run_names_its_tree_workload_seed_and_stderr(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('early line', file=sys.stderr)\n"
        "print('Traceback: boom', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    with pytest.raises(RuntimeError) as exc:
        bench_record.run_once(str(tree), "custom_povm", 7, 0.5)
    message = str(exc.value)
    assert message.startswith(f"perfbench/run.py in {tree} (workload custom_povm, seed 7) exited 3")
    assert message.endswith("early line\nTraceback: boom")

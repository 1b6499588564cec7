"""Self-test of the benchmark: its checks catch wrong outputs, and every
workload runs end to end through ``run.py`` with its checks passing.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_flipped_feature_value_counts_as_failure(name, tmp_path):
    workload = workloads.make(name, 5, str(tmp_path))
    try:
        workload.prepare()
        workload.downstream_fn = workloads.flip_one_feature(
            workloads.capture_downstream
        )
        tally = worker.Tally()
        worker.run_round(workload, tally)
    finally:
        workload.close()
    assert tally.attempted == len(workloads.ROSTER)
    assert tally.failed == tally.attempted
    for failure in tally.failures:
        assert any("features differ" in cause for cause in failure["causes"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_end_to_end_with_checks(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in CONTRACT["end_to_end"]
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "reuse", "--seed", "4", "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in CONTRACT["per_layer"]
    )
    assert 0 <= result["metrics"]["bench.unattributed_share"]["value"] < 0.5
    spans_file = os.path.join(ROOT, ".perfbench", "spans", "reuse-seed4.json")
    with open(spans_file) as handle:
        assert json.load(handle)["spans"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "explore", "--seed", "1", "--seconds",
                     "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    recorder = spans.SpanRecorder()
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 7.0])
    recorder._clock = lambda: next(ticks)
    root = recorder.open("call", "bench")            # 0 .. 7
    child = recorder.open("cnn.forward", "cnn")       # 1 .. 4
    grandchild = recorder.open("cnn.op.Conv2D", "cnn")  # 2 .. 3
    recorder.close(grandchild)
    recorder.close(child)
    recorder.close(root)
    selfs = spans.self_times(recorder.spans)
    assert selfs == {root.id: 4.0, child.id: 2.0, grandchild.id: 1.0}

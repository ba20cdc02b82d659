"""Each workload runs end to end at toy size and reports every metric."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(run.__file__).resolve().parent
E2E = ("setup_s", "peak_rss_mb", "task_s", "makespan_ratio")
DETAILS = {
    "dispatch-large": ("rule_ops_per_s", "vector_ops_per_s", "policy_decisions_per_s",
                       "ensemble_decisions_per_s"),
    "train-epoch": ("epoch_s", "trained_makespan"),
    "anytime-ta": ("anytime_improve_ratio", "anytime_exact_ratio"),
}


@pytest.mark.parametrize("workload", sorted(DETAILS))
def test_workload_at_toy_size(workload):
    report, tracer = run.run(workload, seed=1, seconds=0.1, trace=False, toy=True)
    assert tracer is None
    assert report["rounds"] == 1
    assert report["attempted"] > 0
    # the toy anytime set holds one instance too deep for the exact search
    assert report["failed"] == (1 if workload == "anytime-ta" else 0)
    assert set(report["metrics"]) == set(E2E)
    assert all(m["value"] > 0 for m in report["metrics"].values())
    for name in DETAILS[workload]:
        assert report["details"][name]["value"] > 0


@pytest.mark.parametrize("workload", sorted(DETAILS))
def test_traced_workload_reports_every_layer(workload):
    report, tracer = run.run(workload, seed=1, seconds=0.1, trace=True, toy=True)
    assert list(report["per_layer"]) == list(run.metric_units("per_layer"))
    assert report["per_layer"]["env.step.calls"]["value"] > 0
    assert tracer.spans


def test_tracer_restores_the_program():
    import cpshop.env
    import cpshop.train

    step, forward = cpshop.env.JobShopEnv.step, cpshop.train.forward_logits
    run.run("train-epoch", seed=1, seconds=0.1, trace=True, toy=True)
    assert cpshop.env.JobShopEnv.step is step
    assert cpshop.train.forward_logits is forward


def test_command_line_prints_result_last():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "anytime-ta", "--seed", "2",
         "--seconds", "0.1", "--trace", "0", "--toy"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert out[-2].startswith("report ")
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(E2E)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anytime-ta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

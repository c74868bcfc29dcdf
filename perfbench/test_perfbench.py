"""Self-test of the benchmark at smoke size (configs/smoke.cfg schedule).

    python3 -m pytest -q perfbench

Every named metric must be printed with its unit, the layer predictions that
hold by construction must hold, and a perturbed digest or SR must count as a
failed operation.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def invoke(workload: str, trace: int, cwd: Path = ROOT, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=dict(os.environ, **env),
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(invoke(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_predictions(workload):
    result = result_of(invoke(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    v = {name: m["value"] for name, m in result["metrics"].items()}
    if workload != "train_full":
        assert v["grpo.loss.calls"] == v["rollout.sampled.calls"] == 0
    if workload == "eval_desk":
        assert v["policy.backward.calls"] == v["trainer.adamw.calls"] == 0
        assert v["trainer.episodes"] == 0
    else:
        assert v["trainer.episodes"] == v["trainer.route.grpo"] + v["trainer.route.rect"] + v["trainer.route.bc"]
        assert v["tracing.attributed_s"] + v["tracing.unattributed_s"] >= v["tracing.run_s"] * 0.999
    if workload == "train_bc":
        assert v["trainer.env_steps"] == v["rectify.demos"] == 0


def test_self_times_cover_run_time_on_one_thread():
    v = {n: m["value"] for n, m in result_of(invoke("train_full", 1, BUDNAV_THREADS="1"))["metrics"].items()}
    covered = v["tracing.attributed_s"] + v["tracing.unattributed_s"]
    assert covered == pytest.approx(v["tracing.run_s"], rel=1e-6)


def test_perturbed_outputs_count_as_failed_operations():
    result, reps, prepared = run.run_workload("eval_desk", 0, 1, False, "smoke")
    assert result["failed"] == 0 and len(reps) >= 2
    reps[-1]["digest"] = "0" * 32
    assert run.score("eval_desk", reps, prepared) == 1 and reps[-1]["failed"]
    reps[0]["cases"][-1]["sr"] += 0.5
    assert run.score("eval_desk", reps, prepared) == 2 and reps[0]["failed"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("train_full", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")

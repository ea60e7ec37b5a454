"""One short run per workload through the benchmark's command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _run(root, workload, trace):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_exactly_these_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert [w["name"] for w in json.load(fh)["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_the_output_check(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # The set-up probe's trial plus at least one timed experiment.
    trials = WORKLOADS[workload].trials
    assert result["failed"] == 0
    assert result["attempted"] > trials and (result["attempted"] - 1) % trials == 0
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_checks_itself():
    proc = _run(ROOT, "third_party_trusted_d2_purified", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert _units(result) == _declared("per_layer")
    metrics = result["metrics"]
    assert metrics["harness.session_runs_per_trial"]["value"] == 1.0
    assert metrics["bases.ghz_basis.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(str(tmp_path), "chain_d7_depolarizing", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

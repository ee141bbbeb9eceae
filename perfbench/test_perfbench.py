"""The benchmark's own checks.  Not part of the repository's test suite;
run them with ``python3 -m pytest perfbench -q`` from the checkout root.

Every workload runs once at a held-out seed and a reduced size, in both
modes, and the engine backend confirms the digest on a small batch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 90_001
REDUCED_JOBS = 256


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_engine_oracle_agrees_with_default_routing(name):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(HELD_OUT_SEED, 64)
    server = workload.make_server()
    try:
        routed = digest(server.call(inputs))
        assert digest(server.call(inputs, backend="engine")) == routed
    finally:
        server.close()


def test_fleet_server_close_leaves_no_child_process():
    import multiprocessing
    from multiprocessing import resource_tracker

    workload = WORKLOADS["fleet2_mix_open"]
    server = workload.make_server()
    try:
        server.call(workload.make_inputs(HELD_OUT_SEED, 64))
    finally:
        server.close()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_prints_every_metric(name, trace):
    done = run_bench(
        "--workload", name,
        "--seed", str(HELD_OUT_SEED),
        "--seconds", "1",
        "--trace", trace,
        "--jobs", str(REDUCED_JOBS),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert f"{name} error_rate = 0 ratio" in lines
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    detail = json.loads(lines[-2])
    assert detail["reference"] == "engine"
    assert {"nproc", "python", "numpy", "platform"} <= set(detail["host"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = run_bench(
        "--workload", "mix_open", "--seed", "1", "--seconds", "1",
        "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_every_entry_point():
    import repro.core.framework as framework
    import repro.fleet.pool as pool
    from repro.core.executor import PipelineExecutor

    originals = (
        framework.build_pipeline,
        pool.route_jobs,
        vars(PipelineExecutor)["execute_many"],
        vars(framework.NdftFramework)["run_many"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert framework.build_pipeline is not originals[0]
    finally:
        tracer.uninstall()
    assert (
        framework.build_pipeline,
        pool.route_jobs,
        vars(PipelineExecutor)["execute_many"],
        vars(framework.NdftFramework)["run_many"],
    ) == originals


def test_reference_keys_name_full_size_workloads():
    table = json.loads((HERE / "reference.json").read_text())
    assert table
    for key in table:
        name, n_jobs, _seed = key.split("/")
        assert int(n_jobs) == WORKLOADS[name].n_jobs

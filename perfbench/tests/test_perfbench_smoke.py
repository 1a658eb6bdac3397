"""Tiny-scale end-to-end runs of every workload, untraced and traced."""

import json
import os
import subprocess
import sys

import pytest

from perfbench.spec import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, trace, seconds="2"):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["cold_build", "serve_admit"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [entry[0] for entry in (PER_LAYER if trace else END_TO_END)]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert result["correct"], result
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "cold_build":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        path = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""The benchmark in perfbench/ runs against this checkout's src: every
workload that BENCHMARK.json names must still build its inputs and warm up,
so that removing or renaming a name it uses fails here first, and one
operation of each must pass the benchmark's checks of its outputs."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gtbezier
import gtbezier.cli  # noqa: F401  (the workloads call gtbezier.cli.main)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_sets_up(tmp_path, workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--setup-only"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_outputs_pass_checks(monkeypatch, tmp_path, workload):
    # the benchmark's own output checks, run in process on one operation:
    # a change that moves basis bits out of their bounds fails here first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](gtbezier, 1, tmp_path)
    wl.warm_up()
    wl.op()
    assert wl.check() == []

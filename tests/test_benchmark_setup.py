"""The benchmark in perfbench/ runs against this checkout's src: every
workload that BENCHMARK.json names must still build its inputs and warm up,
so that removing or renaming a name it uses fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_sets_up(tmp_path, workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--setup-only"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""The benchmark in perfbench/ runs against this checkout's src: every
workload that BENCHMARK.json names must still build its inputs and warm up,
so that removing or renaming a name it uses fails here first, and one
operation of each must pass the benchmark's checks of its outputs, and the
NTP suite's trials must be the ones the benchmark rebuilds to check them.
Every gtbezier name the workloads read, in set-up or only in their checks,
must resolve on the package."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gtbezier
import gtbezier.cli  # noqa: F401  (the workloads call gtbezier.cli.main)
from gtbezier import datasets
from gtbezier._draws import suite_params
from gtbezier.totalpos import BOUNDARY_CASES

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _read_names(tree) -> set:
    """(module, name) of each attribute read on gt.<module>, on ds
    (gt.datasets) and on c (gt.curve), gt being a name or an attribute."""
    aliases = {"ds": "datasets", "c": "curve"}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            names.add((aliases[base.id], node.attr))
        elif isinstance(base, ast.Attribute) and (
                isinstance(base.value, ast.Name) and base.value.id == "gt"
                or isinstance(base.value, ast.Attribute) and base.value.attr == "gt"):
            names.add((base.attr, node.attr))
    return names


def test_benchmark_names_resolve():
    # names read only in a workload's check() run in no set-up: removing
    # one must fail here, not when the benchmark first checks its outputs
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = _read_names(tree)
    assert {("totalpos", "rational_collocation_matrix"),
            ("totalpos", "is_totally_positive"), ("cli", "main")} <= names
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(getattr(gtbezier, module, None), name))
    assert missing == []


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


@pytest.mark.parametrize("which", ["circle", "helix"])
def test_benchmark_rebuilds_the_suite_draws(monkeypatch, which):
    # the NTP workloads rebuild judged trials with their own default_rng
    # replica of the draws (workloads.draw_params): it must match the
    # library's batched draws at the suite seeds of a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    ns = datasets.circle_node_set() if which == "circle" else datasets.helix_node_set()
    (a0, an), n = ns.domain, ns.size
    trials = range(72)
    cases = [BOUNDARY_CASES[t % len(BOUNDARY_CASES)] for t in trials]
    for seed in (3 * 10**6 + k for k in range(3)):
        batch = suite_params(seed, trials, cases, a0, an, n)
        for t, params in zip(trials, batch):
            case, replica = workloads.draw_params(seed, t, a0, an, n)
            assert case == cases[t] and (replica == params).all()

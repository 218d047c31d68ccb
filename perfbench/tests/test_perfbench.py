"""Tests of the benchmark's own code: every output checker rejects a
deliberately wrong output, the tracer's self times add up, and the
agreement rule of compare.py. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gtbezier  # noqa: E402
import gtbezier.cli  # noqa: E402,F401
from gtbezier import datasets  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _circle_trial(case_trial=0, seed=5):
    ns, w = datasets.circle_node_set(), np.array(datasets.CIRCLE_WEIGHTS)
    a0, an = ns.domain
    _, params = workloads.draw_params(seed, case_trial, a0, an, ns.size)
    m = gtbezier.rational_collocation_matrix(ns, w, params)
    ref = checks.mp_rational_matrix(ns.nodes, ns.coefficients, ns.scale, w, params)
    return m, ref


def test_draw_params_cases():
    for trial, (low, high) in enumerate([(False, False), (True, False), (False, True), (True, True)]):
        case, p = workloads.draw_params(3, trial, 0.0, 2.0, 6)
        assert case == workloads.BOUNDARY_CASES[trial]
        assert p.size == 6 and np.all(np.diff(p) > 0)
        assert (p[0] == 0.0) == low and (p[-1] == 2.0) == high


def test_matrix_check_rejects_perturbed_matrix():
    m, ref = _circle_trial()
    assert checks.check_matrix_agrees(m, ref) == []
    bad = m.copy()
    bad[2, 3] += 1e-9
    assert checks.check_matrix_agrees(bad, ref)


def test_minor_checks_reject_swapped_matrix():
    import mpmath as mp

    _, ref = _circle_trial()
    assert checks.check_all_minors_nonnegative(ref) == []
    swapped = mp.matrix([[ref[i, j] for j in (1, 0, 2, 3, 4)] for i in range(ref.rows)])
    assert checks.check_all_minors_nonnegative(swapped)


def test_initial_minors_positive_on_stp_and_not_after_swap():
    x = np.linspace(0.1, 1.0, 6)
    kernel = np.exp(np.outer(x, x))  # exp(x_i y_j) is strictly totally positive
    import mpmath as mp

    assert checks.check_initial_minors_positive(mp.matrix(kernel.tolist()), dps=40) == []
    assert checks.check_initial_minors_positive(
        mp.matrix(checks.swapped_columns(kernel).tolist()), dps=40)
    n = 6
    assert len(checks.initial_minors(mp.matrix(kernel.tolist()), dps=40)) == n * n


def test_initial_minors_match_determinants():
    import mpmath as mp

    x = np.linspace(0.2, 1.4, 5)
    kernel = mp.matrix(np.exp(np.outer(x, x)).tolist())
    minors = checks.initial_minors(kernel, dps=40)
    with mp.workdps(40):
        for (i, j), v in minors.items():
            k = min(i, j) + 1
            sub = kernel[i - k + 1:i + 1, j - k + 1:j + 1]
            assert abs(v - mp.det(sub)) <= mp.mpf(10) ** -30 * abs(v)


def test_tp_verdict_on_swapped_matrix_rejected():
    m, _ = _circle_trial()
    verdict = workloads.tp_verdict(gtbezier, checks.swapped_columns(m))
    assert checks.check_rejects(verdict, "swapped") == []
    # A verdict of TP on the swapped matrix is what the check must catch.
    assert checks.check_rejects(SimpleNamespace(is_tp=True), "swapped")


def test_worst_minor_check_rejects_other_trials():
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    a0, an = ns.domain

    def rebuilt(seed, trials):
        out = []
        for trial in range(trials):
            case, params = workloads.draw_params(seed, trial, a0, an, ns.size)
            m = gtbezier.rational_collocation_matrix(ns, w, params)
            out.append((workloads.tp_verdict(gtbezier, m).witness, case))
        return out

    for trials in (1, 4):
        report = gtbezier.verify_ntp_suite(ns, w, trials=trials, seed=11)
        assert checks.check_same_worst_minor(rebuilt(11, trials), report) == []
    # parameters drawn another way (here: from another seed) must not pass
    assert checks.check_same_worst_minor(rebuilt(12, 1),
                                         gtbezier.verify_ntp_suite(ns, w, trials=1, seed=11))


def _table(ns, w, grid=101):
    a0, an = ns.domain
    ts = np.linspace(a0, an, grid)
    return ts, gtbezier.rational_basis_matrix(ns, w, ts)


def test_table_check_rejects_bad_rows():
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    ts, vals = _table(ns, w)
    args = (np.array([7, 50]), ns.nodes, ns.coefficients, ns.scale, w, ts)
    assert checks.check_basis_table(vals, *args) == []
    not_unit_sum = vals.copy()
    not_unit_sum[40, 3] += 1e-9
    assert any("sums to 1" in msg for msg in checks.check_basis_table(not_unit_sum, *args))
    negative = vals.copy()
    negative[40, [3, 4]] += (-1e-3, 1e-3)
    assert checks.check_basis_table(negative, *args)
    shifted_end = vals.copy()
    shifted_end[-1] = np.roll(shifted_end[-1], 1)
    assert any("last row" in msg for msg in checks.check_basis_table(shifted_end, *args))
    off = vals.copy()
    off[7, [5, 6]] += (2e-12, -2e-12)  # sums still to one, but wrong values
    assert any("row 7" in msg for msg in checks.check_basis_table(off, *args))


def test_fit_check_rejects_residual_above_tolerance():
    prob = datasets.circle_problem()
    state = gtbezier.pia_run(prob, max_iter=1000, tol=1e-10)
    ns = prob.nodeset
    args = (ns.nodes, ns.coefficients, ns.scale, prob.weights)
    good = checks.fit_residual(*args, state.control, prob.params, prob.data)
    assert checks.check_fit_residual(good, 1e-10, 1e-12) == []
    early = gtbezier.pia_run(prob, max_iter=20).control
    bad = checks.fit_residual(*args, early, prob.params, prob.data)
    assert checks.check_fit_residual(bad, 1e-10, 1e-12)
    nudged = state.control.copy()
    nudged[2, 0] += 1e-6
    bad = checks.fit_residual(*args, nudged, prob.params, prob.data)
    assert checks.check_fit_residual(bad, 1e-10, 1e-12)


def test_curve_point_check_rejects_wrong_points():
    ns, w, ctrl = datasets.circle_node_set(), datasets.CIRCLE_WEIGHTS, datasets.circle_samples()
    ts = np.linspace(*ns.domain, 7)
    pts = gtbezier.curve_points(gtbezier.GTBezierCurve(ns, w, ctrl), ts)
    ref = checks.mp_curve_points(ns.nodes, ns.coefficients, ns.scale, w, ctrl, ts)
    assert checks.check_points(pts, ref, 1e-12, "circle") == []
    assert checks.check_points(pts + 1e-9, ref, 1e-12, "circle")
    inf = pts.copy()
    inf[3, 1] = np.inf
    assert checks.check_points(inf, ref, 1e-12, "circle")


def test_tracer_self_time_and_restore(tmp_path):
    original = gtbezier.totalpos.rational_basis_matrix
    tracer = spans.Tracer(gtbezier)
    prob = datasets.circle_problem()
    with tracer, tracer.span("bench.op"):
        assert gtbezier.totalpos.rational_basis_matrix is not original
        gtbezier.pia.pia_run(prob, max_iter=3)
    assert gtbezier.totalpos.rational_basis_matrix is original
    totals = tracer.totals()
    assert totals["pia.pia_step"][0] == 3
    # each step rebuilds the collocation matrix through the basis layer
    assert totals["totalpos.rational_collocation_matrix"][0] == 3
    assert totals["basis.log_basis_matrix"][0] == 3
    assert tracer.sizes["basis.rational_basis_matrix"] == 3 * 5 * 5
    for calls, incl, self_ns in totals.values():
        assert 0 <= self_ns <= incl
    # self times of all spans add up to the root span's inclusive time
    assert sum(t[2] for t in totals.values()) == totals["bench.op"][1]
    tracer.write(tmp_path / "trace.json")


def test_speed_probe_slowdown_is_a_geometric_mean_of_ratios():
    speed = probe.SpeedProbe()
    speed.run()
    speed.run()
    assert all(len(v) == 2 and min(v) > 0 for v in speed.times.values())
    speed.times = {k: [2 * ref, 2 * ref] for k, ref in probe.REFERENCE_S.items()}
    assert speed.slowdown() == pytest.approx(2.0)
    speed.times["python"] = [8 * probe.REFERENCE_S["python"]]
    assert speed.slowdown() == pytest.approx((8 * 2) ** (1 / 2))


def _runs(values, failed=0):
    return [{"correct": True, "attempted": 10, "failed": failed,
             "metrics": {"op_ref_ms": {"value": v, "unit": "ms"}}} for v in values]


def test_compare_agreement_rule():
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "op_ref_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.evaluate(bench, [{"w": _runs(steady)}, {"w": _runs(steady)}])[0]
    slower = [v * 1.2 for v in steady]
    assert not compare.evaluate(bench, [{"w": _runs(steady)}, {"w": _runs(slower)}])[0]
    faster = [v * 0.8 for v in steady]
    assert not compare.evaluate(bench, [{"w": _runs(steady)}, {"w": _runs(faster)}])[0]
    within = [v * 0.95 for v in steady]
    assert compare.evaluate(bench, [{"w": _runs(steady)}, {"w": _runs(within)}])[0]
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert not compare.evaluate(bench, [{"w": _runs(noisy)}, {"w": _runs(noisy)}])[0]
    assert not compare.evaluate(bench, [{"w": _runs(steady)}, {"w": _runs(steady, failed=1)}])[0]


@pytest.mark.parametrize("name", ["pia-fit-circle", "pia-fit-helix", "basis-table"])
def test_configs_depend_only_on_seed(name, tmp_path):
    def configs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.WORKLOADS[name](gtbezier, seed, d)
        return {p.name: p.read_text() for p in sorted(d.glob("*.json"))}

    a, b, c = configs(4, "a"), configs(4, "b"), configs(5, "c")
    assert a and a == b and a != c


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](gtbezier, 2, tmp_path)
    wl.warm_up()
    wl.op()
    assert wl.check() == []


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    import json
    import subprocess

    root = HERE.parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    res = subprocess.run(bench["command"] + ["--workload", "pia-fit-circle", "--seed", "3",
                                             "--seconds", "0.3", "--trace", trace],
                         cwd=root, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == "1":
        assert out["metrics"]["pia.iterations.circle"]["value"] == 121
        assert out["metrics"]["totalpos.is_totally_positive.calls"]["value"] == 0

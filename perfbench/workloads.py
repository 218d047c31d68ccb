"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one operation at a time
through gtbezier's public functions or its in-process command line, and
checks the outputs afterwards. Functions are looked up on their modules at
call time, so a traced run sees every call.

    ntp-circle      verify_ntp_suite on the 5-node circle basis, 40 trials a call
    ntp-helix       verify_ntp_suite on the 31-node helix basis, 4 trials a call
    pia-fit-circle  `gtbezier pia-fit` on the circle to tol 1e-10
    pia-fit-helix   `gtbezier pia-fit` on the helix to tol 1e-4
    basis-table     `gtbezier basis-eval` on 10001-point circle and helix grids
    curve-points    curve_points and sample_polyline on 20001-point grids of the
                    circle, the helix and the raw-scale helix
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks

BOUNDARY_CASES = ("interior", "left", "right", "both")


def _run_cli(gt, argv):
    """gtbezier's command line, in process, with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = gt.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gtbezier {' '.join(argv)} exited with {code}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _node_config(ns, weights, **extra):
    return {"nodes": ns.nodes.tolist(), "coefficients": ns.coefficients.tolist(),
            "scale": ns.scale, "weights": np.asarray(weights, dtype=float).tolist(), **extra}


def draw_params(seed, trial, a0, an, count):
    """Parameters of one verify_ntp_suite trial, drawn the way its docstring
    states: case by trial index, RNG stream (seed, trial), uniform draws in
    [a0 + eps, an - eps], sorted, endpoints added for the boundary cases."""
    case = BOUNDARY_CASES[trial % 4]
    rng = np.random.default_rng([seed, trial])
    eps = 1e-6 * (an - a0)
    low, high = case in ("left", "both"), case in ("right", "both")
    free = count - low - high
    while True:
        inner = np.sort(rng.uniform(a0 + eps, an - eps, size=free))
        if free < 2 or np.all(np.diff(inner) > 0):
            break
    return case, np.concatenate([[a0]] * low + [inner] + [[an]] * high)


def tp_verdict(gt, m):
    """TP verdict at whatever size the library's default method accepts,
    else by its contiguous-minor method (the one verify_ntp_suite uses
    above the exhaustive-enumeration limit)."""
    try:
        return gt.totalpos.is_totally_positive(m)
    except ValueError:
        return gt.totalpos.is_totally_positive(m, method="contiguous")


class Workload:
    trace_ops = 1  # operations per half of a traced run
    outdirs = ()

    def __init__(self, gt, seed, workdir):
        self.gt, self.seed, self.workdir = gt, seed, Path(workdir)

    def iterations(self):
        return {}


class Ntp(Workload):
    def __init__(self, gt, seed, workdir, which):
        super().__init__(gt, seed, workdir)
        ds = gt.datasets
        if which == "circle":
            self.ns, self.w, self.trials = ds.circle_node_set(), np.array(ds.CIRCLE_WEIGHTS), 40
            self.trace_ops, self.sample = 50, range(8)
        else:
            self.ns, self.w, self.trials = ds.helix_node_set(), ds.helix_weights(), 4
            self.trace_ops, self.sample = 6, range(4)
        self.which = which
        self.reports = []

    def _suite(self, trials):
        suite_seed = self.seed * 1_000_000 + len(self.reports)
        report = self.gt.totalpos.verify_ntp_suite(self.ns, self.w, trials=trials, seed=suite_seed)
        self.reports.append((suite_seed, trials, report))

    def warm_up(self):
        self._suite(1)

    def op(self):
        self._suite(self.trials)

    def _matrix(self, suite_seed, trial):
        a0, an = self.ns.domain
        case, params = draw_params(suite_seed, trial, a0, an, self.ns.size)
        return case, params, self.gt.totalpos.rational_collocation_matrix(self.ns, self.w, params)

    def check(self):
        bad = []
        for suite_seed, trials, r in self.reports:
            if r.trials != trials or r.failures:
                bad.append(f"suite {suite_seed}: {r.failures} of {r.trials} trials not TP")
            # negative control: a column swap breaks total positivity
            _, _, m = self._matrix(suite_seed, 0)
            bad += checks.check_rejects(tp_verdict(self.gt, checks.swapped_columns(m)),
                                        f"suite {suite_seed} swapped trial 0")
        # The matrices checked below are rebuilt; they must be the ones the
        # suite judged. Boundary trials all have zero minors, so the last
        # suite's worst witness is matched as well as that of a one-trial
        # suite (interior only) with the same seed.
        suite_seed, trials, report = self.reports[-1]
        witnesses = [(tp_verdict(self.gt, m).witness, case)
                     for case, _, m in (self._matrix(suite_seed, t) for t in range(trials))]
        bad += checks.check_same_worst_minor(witnesses, report)
        first = self.gt.totalpos.verify_ntp_suite(self.ns, self.w, trials=1, seed=suite_seed)
        bad += checks.check_same_worst_minor(witnesses[:1], first)
        dps = checks.MP_DPS if self.which == "circle" else checks.MINOR_DPS
        for trial in self.sample:
            case, params, m = self._matrix(suite_seed, trial)
            ns = self.ns
            ref = checks.mp_rational_matrix(ns.nodes, ns.coefficients, ns.scale, self.w, params, dps)
            bad += checks.check_matrix_agrees(m, ref)
            if self.which == "circle":
                bad += checks.check_all_minors_nonnegative(ref)
            elif case == "interior":
                bad += checks.check_initial_minors_positive(ref)
        return bad


class Fit(Workload):
    # Rounding allowance of the residual check: the data are O(1) after the
    # rigid motion, so evaluation error is about 1e-15.
    SLACK = 1e-12

    def __init__(self, gt, seed, workdir, which):
        super().__init__(gt, seed, workdir)
        ds = gt.datasets
        prob = ds.circle_problem() if which == "circle" else ds.helix_problem()
        self.which = which
        self.tol = 1e-10 if which == "circle" else 1e-4
        self.trace_ops = 60 if which == "circle" else 2
        # A seeded rigid motion of the data: PIA is equivariant under it, so
        # the work is the same for every seed while the inputs differ.
        rng = np.random.default_rng([seed, 1])
        dim = prob.data.shape[1]
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        self.data = prob.data @ q.T + rng.uniform(-1.0, 1.0, dim)
        self.problem = prob
        cfg = _node_config(prob.nodeset, prob.weights, mode="fit", points=self.data.tolist(),
                           params=prob.params.tolist(), max_iter=100000, tol=self.tol)
        self.config = _write_json(self.workdir / f"fit-{which}.json", cfg)
        self.out = self.workdir / f"fit-{which}"
        self.outdirs = (self.out,)

    def warm_up(self):
        _run_cli(self.gt, ["pia-fit", "--config", self.config, "--iterations", "5",
                           "--out", str(self.out)])

    def op(self):
        _run_cli(self.gt, ["pia-fit", "--config", self.config, "--out", str(self.out)])

    def iterations(self):
        _, hist = checks.read_csv(self.out / "history.csv")
        return {self.which: len(hist)}

    def check(self):
        _, control = checks.read_csv(self.out / "control.csv")
        _, hist = checks.read_csv(self.out / "history.csv")
        bad = []
        if not hist[-1, 1] <= self.tol:
            bad.append(f"last recorded error {hist[-1, 1]:.3e} > tol {self.tol:.0e}")
        p = self.problem
        residual = checks.fit_residual(p.nodeset.nodes, p.nodeset.coefficients, p.nodeset.scale,
                                       p.weights, control, p.params, self.data)
        return bad + checks.check_fit_residual(residual, self.tol, self.SLACK)


class Table(Workload):
    GRID = 10001
    trace_ops = 3

    def __init__(self, gt, seed, workdir):
        super().__init__(gt, seed, workdir)
        ds = gt.datasets
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for which, ns, w in (("circle", ds.circle_node_set(), ds.CIRCLE_WEIGHTS),
                             ("helix", ds.helix_node_set(), ds.helix_weights())):
            # A seeded affine map of the node set, with the scale divided by
            # its stretch: the basis values, and so the work, are unchanged.
            stretch = math.exp(rng.uniform(-math.log(2), math.log(2)))
            ns = gt.basis.NodeSet(stretch * ns.nodes + rng.uniform(-1.0, 1.0),
                                  ns.coefficients, ns.scale / stretch)
            cfg = _write_json(self.workdir / f"eval-{which}.json",
                              _node_config(ns, w, mode="eval", grid=self.GRID))
            self.cases.append((which, ns, np.asarray(w, dtype=float), cfg,
                               self.workdir / f"eval-{which}"))
        self.outdirs = tuple(c[4] for c in self.cases)
        self.rows = np.sort(rng.choice(np.arange(1, self.GRID - 1), 8, replace=False))

    def warm_up(self):
        for _, _, _, cfg, out in self.cases:
            _run_cli(self.gt, ["basis-eval", "--config", cfg, "--grid", "11", "--out", str(out)])

    def op(self):
        for _, _, _, cfg, out in self.cases:
            _run_cli(self.gt, ["basis-eval", "--config", cfg, "--out", str(out)])

    def check(self):
        bad = []
        for which, ns, w, _, out in self.cases:
            _, table = checks.read_csv(out / "basis.csv")
            if table.shape != (self.GRID, ns.size + 1):
                bad.append(f"{which}: table shape {table.shape}")
                continue
            bad += [f"{which}: {msg}" for msg in checks.check_basis_table(
                table[:, 1:], self.rows, ns.nodes, ns.coefficients, ns.scale, w, table[:, 0])]
        return bad


class Curves(Workload):
    POINTS = 20001
    trace_ops = 15

    def __init__(self, gt, seed, workdir):
        super().__init__(gt, seed, workdir)
        ds = gt.datasets
        rng = np.random.default_rng([seed, 3])
        helix = ds.helix_node_set()
        raw = gt.basis.NodeSet(helix.nodes, helix.coefficients, ds.HELIX_SHARPNESS)
        self.cases = []
        for which, ns, w, ctrl in (
                ("circle", ds.circle_node_set(), ds.CIRCLE_WEIGHTS, ds.circle_samples()),
                ("helix", helix, ds.helix_weights(), ds.helix_samples()),
                ("raw-helix", raw, ds.helix_weights(), ds.helix_samples())):
            a0, an = ns.domain
            ts = np.concatenate([[a0], np.sort(rng.uniform(a0, an, self.POINTS - 2)), [an]])
            curve = gt.curve.GTBezierCurve(ns, w, ctrl)
            self.cases.append((which, curve, ts))
        self.sample = np.sort(rng.choice(np.arange(self.POINTS), 6, replace=False))
        self.last = []

    def _round(self, points):
        c = self.gt.curve
        self.last = [(c.curve_points(curve, ts[:points]), c.sample_polyline(curve, points))
                     for _, curve, ts in self.cases]

    def warm_up(self):
        self._round(11)

    def op(self):
        self._round(self.POINTS)

    def check(self):
        bad = []
        for (which, curve, ts), (pts, poly) in zip(self.cases, self.last):
            ns, ctrl = curve.nodeset, curve.control
            a0, an = ns.domain
            ref = checks.mp_curve_points(ns.nodes, ns.coefficients, ns.scale, curve.weights,
                                         ctrl, ts[self.sample])
            bad += checks.check_points(pts[self.sample], ref, 1e-12, f"{which} curve_points")
            grid = np.linspace(a0, an, self.POINTS)[self.sample]
            ref = checks.mp_curve_points(ns.nodes, ns.coefficients, ns.scale, curve.weights,
                                         ctrl, grid)
            bad += checks.check_points(poly[self.sample], ref, 1e-12, f"{which} sample_polyline")
            for name, arr in (("curve_points", pts), ("sample_polyline", poly)):
                if not np.all(np.isfinite(arr)):
                    bad.append(f"{which} {name}: non-finite points")
                if not (np.array_equal(arr[0], ctrl[0]) and np.array_equal(arr[-1], ctrl[-1])):
                    bad.append(f"{which} {name}: endpoints are not the end control points")
        return bad


WORKLOADS = {
    "ntp-circle": lambda gt, seed, wd: Ntp(gt, seed, wd, "circle"),
    "ntp-helix": lambda gt, seed, wd: Ntp(gt, seed, wd, "helix"),
    "pia-fit-circle": lambda gt, seed, wd: Fit(gt, seed, wd, "circle"),
    "pia-fit-helix": lambda gt, seed, wd: Fit(gt, seed, wd, "helix"),
    "basis-table": Table,
    "curve-points": Curves,
}

"""Tests for the progressive iterative approximation engine."""

import warnings

import numpy as np
import pytest

import gtbezier.pia
from gtbezier import (
    DivergenceError,
    FitProblem,
    GTBezierCurve,
    NodeSet,
    bernstein_equivalent_nodeset,
    curve_points,
    fitted_curve,
    iteration_spectrum,
    pia_run,
    rational_collocation_matrix,
)
from gtbezier import datasets
from gtbezier.pia import _BLOCK, DIVERGENCE_FACTOR

# reference fit errors for the two benchmarks; matched at order of magnitude
CIRCLE_EXPECTED = {1: 2.317e-01, 5: 2.236e-02, 10: 9.7e-03, 20: 1.8e-03}
HELIX_EXPECTED = {1: 8.390e-01, 10: 8.92e-02, 20: 1.90e-02, 30: 8.7e-03}


def _line_problem():
    ns = NodeSet([0, 1])
    data = np.array([[0.0, 0.0], [2.0, 2.0]])
    return FitProblem(data, np.array([0.0, 1.0]), ns, np.ones(2))


def test_problem_validation():
    ns = NodeSet([0, 1, 2])
    data = np.zeros((3, 2))
    with pytest.raises(ValueError, match="one parameter per data point"):
        FitProblem(data, [0.0, 2.0], ns, np.ones(3))
    with pytest.raises(ValueError, match="match node count"):
        FitProblem(np.zeros((2, 2)), [0.0, 2.0], ns, np.ones(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        FitProblem(data, [0.0, 0.0, 2.0], ns, np.ones(3))
    with pytest.raises(ValueError, match="domain"):
        FitProblem(data, [0.0, 1.0, 2.5], ns, np.ones(3))


def _max_residual(problem, control):
    """Max Euclidean norm of P_i - C(t_i), evaluated on the curve itself."""
    curve = GTBezierCurve(problem.nodeset, problem.weights, control)
    return float(np.max(np.linalg.norm(problem.data - curve_points(curve, problem.params),
                                       axis=1)))


def test_init_copies_data():
    problem = datasets.circle_problem()
    state = pia_run(problem, 0)
    assert state.iteration == 0
    assert state.error_history == ()
    np.testing.assert_array_equal(state.control, problem.data)
    assert state.control is not problem.data
    helix = pia_run(datasets.helix_problem(), 0)
    assert helix.control.shape == (31, 3)


def test_fixed_point_adjustments_are_zero():
    # two data points at the curve endpoints are already interpolated
    problem = _line_problem()
    assert _max_residual(problem, problem.data) == 0.0
    stepped = pia_run(problem, 1)
    np.testing.assert_array_equal(stepped.control, problem.data)
    assert stepped.error_history == (0.0,)
    assert stepped.iteration == 1


def test_initial_circle_residual_magnitude():
    problem = datasets.circle_problem()
    err = pia_run(problem, 1).error_history[0]
    assert err == _max_residual(problem, problem.data)
    assert CIRCLE_EXPECTED[1] / 10 < err < CIRCLE_EXPECTED[1] * 10


def test_step_bookkeeping_and_error_consistency():
    problem = datasets.circle_problem()
    s1 = pia_run(problem, 1)
    s2 = pia_run(problem, 2)
    assert len(s2.error_history) == 2
    assert s2.iteration == 2
    assert s2.error_history[0] == s1.error_history[0]
    # the second recorded error is the residual of the one-step curve
    assert s2.error_history[-1] == _max_residual(problem, s1.control)


def test_run_stops_at_tolerance():
    problem = _line_problem()
    state = pia_run(problem, max_iter=50, tol=0.0)
    assert state.iteration == 1  # first error is already 0
    assert state.error_history == (0.0,)
    with pytest.raises(ValueError, match="max_iter"):
        pia_run(problem, max_iter=-1)
    initial = pia_run(problem, max_iter=0)
    assert initial.iteration == 0 and initial.error_history == ()
    np.testing.assert_array_equal(initial.control, problem.data)
    with pytest.raises(ValueError, match="tol"):
        pia_run(problem, max_iter=1, tol=-1.0)


def test_run_rejects_nan_tol():
    # no error is <= NaN, so the run would never stop before max_iter
    with pytest.raises(ValueError, match="tol must be non-negative"):
        pia_run(datasets.circle_problem(), max_iter=200, tol=np.nan)


@pytest.mark.parametrize("max_iter", [np.nan, 2.5, 3.0, "4"])
def test_run_rejects_non_integer_max_iter(max_iter):
    # NaN once ran no step, and 2.5 or 3.0 failed inside the block loop
    problem = datasets.circle_problem()
    with pytest.raises(TypeError, match="max_iter must be an integer"):
        pia_run(problem, max_iter=max_iter)
    assert pia_run(problem, max_iter=np.int64(3)).iteration == 3


@pytest.mark.parametrize(
    "problem,expected,last",
    [
        (datasets.circle_problem, CIRCLE_EXPECTED, 20),
        (datasets.helix_problem, HELIX_EXPECTED, 30),
    ],
)
def test_benchmark_errors_order_of_magnitude(problem, expected, last):
    state = pia_run(problem(), max_iter=last)
    for checkpoint, ref in expected.items():
        got = state.error_history[checkpoint - 1]
        assert ref / 10 < got < ref * 10, f"checkpoint {checkpoint}: {got} vs {ref}"


def test_example_problems():
    # each benchmark's tuned problem and its Bezier baselines on the same
    # data, the baselines on the Bernstein node set with their parameters
    # rescaled to [0, n]; only the rational baseline is weighted
    benchmarks = {
        "circle": (datasets.circle_problem(), ("gt", "bezier", "rational"), (1, 5, 10, 20)),
        "helix": (datasets.helix_problem(), ("gt", "bezier"), (1, 10, 20, 30)),
    }
    for which, (tuned, labels, checkpoints) in benchmarks.items():
        problems, got = datasets.example_problems(which)
        assert tuple(problems) == labels and got == checkpoints
        n = tuned.data.shape[0] - 1
        bernstein = bernstein_equivalent_nodeset(n)
        rescaled = n * (tuned.params - tuned.params[0]) / (tuned.params[-1] - tuned.params[0])
        for label, problem in problems.items():
            if label == "gt":
                ns, params, weights = tuned.nodeset, tuned.params, tuned.weights
            else:
                ns, params = bernstein, rescaled
                weights = datasets.CIRCLE_WEIGHTS if label == "rational" else np.ones(n + 1)
            np.testing.assert_array_equal(problem.data, tuned.data)
            np.testing.assert_array_equal(problem.nodeset.nodes, ns.nodes)
            np.testing.assert_array_equal(problem.nodeset.coefficients, ns.coefficients)
            assert problem.nodeset.scale == ns.scale
            np.testing.assert_array_equal(problem.params, params)
            np.testing.assert_array_equal(problem.weights, weights)
    with pytest.raises(ValueError, match="unknown benchmark 'square'"):
        datasets.example_problems("square")


def test_error_history_windowed_monotone():
    for problem in (datasets.circle_problem(), datasets.helix_problem()):
        h = pia_run(problem, max_iter=30).error_history
        assert all(h[k + 5] < h[k] for k in range(len(h) - 5))


def test_recovers_interpolation_of_known_curve():
    # data sampled exactly from a curve: the iteration converges back to
    # its control points
    prob = datasets.circle_problem()
    rng = np.random.default_rng(7)
    control = rng.normal(size=(5, 2))
    curve = GTBezierCurve(prob.nodeset, prob.weights, control)
    data = curve_points(curve, prob.params)
    recovered = pia_run(
        FitProblem(data, prob.params, prob.nodeset, prob.weights), max_iter=200, tol=0.0
    )
    assert recovered.error_history[-1] < 1e-8
    np.testing.assert_allclose(recovered.control, control, atol=1e-8)
    # geometric decay: ratios of successive tail errors stay below 1
    tail = np.array(recovered.error_history[5:40])
    assert np.all(tail[1:] / tail[:-1] < 1.0)


def test_trajectory_affine_equivariance():
    problem = datasets.circle_problem()
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    mapped = FitProblem(
        problem.data @ a.T + b, problem.params, problem.nodeset, problem.weights
    )
    for k in range(1, 11):
        s, sm = pia_run(problem, k), pia_run(mapped, k)
        np.testing.assert_allclose(s.control @ a.T + b, sm.control, atol=1e-10)


def test_divergence_guard(monkeypatch):
    # C = 3I makes the iteration matrix I - C = -2I: every residual doubles
    # per step through the real loop until the guard trips
    monkeypatch.setattr(gtbezier.pia, "rational_collocation_matrix",
                        lambda ns, w, params: 3.0 * np.eye(5))
    problem = datasets.circle_problem()
    with pytest.raises(DivergenceError, match="exceeds"):
        pia_run(problem, max_iter=50)


# helix fit to 1e-4, pinned bit for bit: the loop's arithmetic must not change
HELIX_TOL_STEPS = 7938
HELIX_TOL_HISTORY = {
    0: 0.8390353985920251,
    9: 0.08919763998075578,
    99: 0.0019060481452278263,
    999: 0.0004895336865276733,
    7937: 9.999309188697026e-05,
}


def test_helix_run_to_tolerance_pinned():
    state = pia_run(datasets.helix_problem(), max_iter=100000, tol=1e-4)
    assert state.iteration == HELIX_TOL_STEPS == len(state.error_history)
    for k, err in HELIX_TOL_HISTORY.items():
        assert state.error_history[k] == err, k


def _step_loop(problem, max_iter, tol=0.0):
    """The update P^(k+1) = P^k + (P - C P^k) written out one step at a
    time, with pia_run's guard and stop rule; overflow gives inf errors
    without a warning, as in pia_run. Returns (control, history)."""
    data, c = problem.data, problem.collocation
    control, history = data.copy(), []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            delta = data - c @ control
            err = float(np.max(np.linalg.norm(delta, axis=1)))
            control = control + delta
            history.append(err)
            first = history[0]
            if first > 0 and err > DIVERGENCE_FACTOR * first:
                raise DivergenceError(
                    f"fit error {err:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x initial {first:.3e}"
                )
            if err <= tol:
                break
    return control, history


def test_run_equals_chained_steps():
    # the blocked loop against one step at a time, on both sides of block
    # edges, and with tolerances first met on the last step of the first
    # block and on the first step of the second
    for problem in (datasets.circle_problem(), datasets.helix_problem()):
        errors = _step_loop(problem, 2 * _BLOCK + 1)[1]
        runs = [(m, 0.0, m) for m in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)]
        runs += [(2 * _BLOCK + 1, errors[stop - 1], stop) for stop in (_BLOCK, _BLOCK + 1)]
        for max_iter, tol, steps in runs:
            control, history = _step_loop(problem, max_iter, tol)
            run = pia_run(problem, max_iter, tol)
            assert run.iteration == len(history) == steps
            assert run.error_history == tuple(history)
            assert np.array_equal(run.control, control)
            # a fresh array, not a view of the loop's buffers
            assert run.control.base is None and run.control.flags.owndata


@pytest.mark.parametrize("factor,trip", [(1e100, 2), (1 + 1e6 ** (1 / (_BLOCK - 0.5)), _BLOCK + 1)],
                         ids=["overflow", "block-edge"])
def test_divergence_guard_trips_where_steps_do(monkeypatch, factor, trip):
    # C = factor I scales each residual by 1 - factor per step. At 1e100 the
    # second error overflows to inf, and the dropped steps after it overflow
    # further, with no warning; the other factor passes the guard's 1e6 on
    # the first step of the second block
    monkeypatch.setattr(gtbezier.pia, "rational_collocation_matrix",
                        lambda ns, w, params: factor * np.eye(5))
    problem = datasets.circle_problem()
    _step_loop(problem, trip - 1)
    with pytest.raises(DivergenceError) as stepped:
        _step_loop(problem, trip)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as blocked:
            pia_run(problem, max_iter=2 * _BLOCK + 1)
    assert str(blocked.value) == str(stepped.value)


def test_collocation_built_once_and_read_only(monkeypatch):
    reference = datasets.circle_problem()
    calls = []
    build = gtbezier.pia.rational_collocation_matrix

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gtbezier.pia, "rational_collocation_matrix", counting)
    problem = FitProblem(reference.data, reference.params, reference.nodeset, reference.weights)
    data = problem.data.copy()
    pia_run(problem, max_iter=200)
    iteration_spectrum(problem)
    assert len(calls) == 1
    assert problem.collocation.flags.writeable is False
    np.testing.assert_array_equal(problem.data, data)
    np.testing.assert_array_equal(
        problem.collocation,
        rational_collocation_matrix(problem.nodeset, problem.weights, problem.params),
    )


def test_fitted_curve_wraps_state():
    problem = datasets.circle_problem()
    state = pia_run(problem, max_iter=5)
    curve = fitted_curve(problem, state)
    np.testing.assert_array_equal(curve.control, state.control)


def test_iteration_spectrum_identity_case():
    problem = _line_problem()
    assert iteration_spectrum(problem) == pytest.approx(0.0, abs=1e-15)


def test_iteration_spectrum_certifies_examples():
    circle = iteration_spectrum(datasets.circle_problem())
    helix = iteration_spectrum(datasets.helix_problem())
    assert circle < 1.0
    assert helix < 1.0


def _power_iteration_radius(m, iters=3000, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=m.shape[0])
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = m @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x, est = y / norm, norm
    return est


def test_iteration_spectrum_matches_power_iteration():
    problem = datasets.circle_problem()
    c = problem.collocation
    oracle = _power_iteration_radius(np.eye(5) - c)
    assert iteration_spectrum(problem) == pytest.approx(oracle, abs=1e-9)
    helix = datasets.helix_problem()
    ch = helix.collocation
    oracle_h = _power_iteration_radius(np.eye(31) - ch)
    assert oracle_h < 1.0
    assert iteration_spectrum(helix) == pytest.approx(oracle_h, abs=1e-3)

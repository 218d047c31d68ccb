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
    pia_run,
    rational_basis_matrix,
    rational_collocation_matrix,
)
from gtbezier import datasets
from gtbezier.basis import _FLOAT_MAX
from gtbezier.config import MAX_FIT_NODES
from gtbezier.pia import _SPAN, _SPANS, _STACK_BUDGET, DIVERGENCE_FACTOR, _block_shape
from bad_inputs import BAD_COUNTS, BAD_TOLERANCES
from oracles import (CURVE_POINTS_ERROR, HELIX_FIT_STEP_LOOP_ERRORS, near_row_major, pia_errors,
                     pia_oracle, row_major_basis)

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


def _step_residual(problem, control):
    """Max Euclidean norm of P_i - (C P)_i: PIA's float step."""
    return float(np.max(np.linalg.norm(problem.data - problem.collocation @ control, axis=1)))


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
    # the second recorded error is the float step's residual of the one-step
    # controls, and the curve through them misses the data by as much, within
    # the bound of its points
    assert s2.error_history[-1] == _step_residual(problem, s1.control)
    assert abs(s2.error_history[-1] - _max_residual(problem, s1.control)) <= CURVE_POINTS_ERROR


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
    # no error is <= NaN, so the run would never stop before max_iter; an
    # infinite tol once stopped after one step, and "3" or None raised a
    # comparison TypeError that named no argument
    problem = datasets.circle_problem()
    for tol in BAD_TOLERANCES:
        with pytest.raises((TypeError, ValueError), match="tol must be a finite number >= 0"):
            pia_run(problem, max_iter=200, tol=tol)


@pytest.mark.parametrize("max_iter", [*BAD_COUNTS, 3.0, "4"])
def test_run_rejects_non_integer_max_iter(max_iter):
    # the count rule: NaN once ran no step, 2.5 or 3.0 failed inside the
    # block loop, and True ran one step
    problem = datasets.circle_problem()
    with pytest.raises((TypeError, ValueError), match="max_iter must be"):
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
    monkeypatch.setattr(gtbezier.pia, "rational_basis_matrix",
                        lambda ns, w, params: 3.0 * np.eye(5))
    problem = datasets.circle_problem()
    with pytest.raises(DivergenceError, match="exceeds"):
        pia_run(problem, max_iter=50)


# steps in a full block: _SPANS spans of _SPAN steps
BLOCK = _SPAN * _SPANS


def _block_edges(max_iter):
    """Steps done at each of pia_run's block edges on up to 106 nodes: its
    blocks take 1, 1, 2, 4, ... steps, up to BLOCK (1, 2, 4, ..., 128, 256,
    384, ...)."""
    done, edges = 0, []
    while done < max_iter:
        done += min(BLOCK, max_iter - done, max(1, done))
        edges.append(done)
    return edges


# the first edge followed by a block of BLOCK steps
FULL_EDGE = next(edge for edge in _block_edges(4 * BLOCK) if edge >= BLOCK)


def _step_loop(problem, max_iter, tol=0.0):
    """The update P^(k+1) = P^k + (P - C P^k) written out one step at a
    time in float, with pia_run's norm, guard and stop rule; overflow gives
    no warning, as in pia_run. Returns (control, history)."""
    data, c = problem.data, problem.collocation
    control, history = data.copy(), []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            delta = data - c @ control
            err = float(np.max(np.hypot.reduce(delta, axis=1)))
            control = control + delta
            history.append(err)
            first = history[0]
            if not err <= min(DIVERGENCE_FACTOR * first, _FLOAT_MAX):
                raise DivergenceError(
                    f"fit error {err:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x initial {first:.3e}"
                )
            if err <= tol:
                break
    return control, history


HELIX_TOL_STEPS = 7938


def test_helix_run_to_tolerance_pinned():
    # the step count is pinned; the history and controls are bounded against
    # the long-double oracle by the float step loop's own errors there
    problem = datasets.helix_problem()
    state = pia_run(problem, max_iter=100000, tol=1e-4)
    assert state.iteration == HELIX_TOL_STEPS == len(state.error_history)
    history_error, control_error = pia_errors(problem, state.control, state.error_history)
    assert history_error <= HELIX_FIT_STEP_LOOP_ERRORS[0]
    assert control_error <= 2 * HELIX_FIT_STEP_LOOP_ERRORS[1]


def test_run_equals_chained_steps():
    # the blocked loop against one step at a time, on both sides of block
    # edges and of the first span edges inside a full block, and with
    # tolerances first met on the last step of a block or span and on the
    # first step of the next: the same step counts, then errors against the
    # long-double oracle no larger than the step loop's (twice that for the
    # controls), over all the runs on each problem. The circle's errors reach
    # their rounding floor near 1e-16 by step 200, where they no longer fall
    # from step to step, so its edges end at BLOCK steps
    helix_edges = sorted(_block_edges(2 * BLOCK) + [FULL_EDGE + _SPAN, FULL_EDGE + 2 * _SPAN])
    outcomes = []
    for problem, edges in ((datasets.circle_problem(), _block_edges(BLOCK)),
                           (datasets.helix_problem(), helix_edges)):
        errors = _step_loop(problem, edges[-1] + 2)[1]
        runs = [(m, 0.0, m) for m in {0} | {e + d for e in edges for d in (-1, 0, 1)}]
        # tol between two errors: the run stops on the step after the larger
        runs += [(edges[-1] + 2, (errors[stop - 1] + errors[stop - 2]) / 2, stop)
                 for e in edges for stop in (e, e + 1) if stop > 1]
        for max_iter, tol, steps in runs:
            control, history = _step_loop(problem, max_iter, tol)
            run = pia_run(problem, max_iter, tol)
            assert run.iteration == len(history) == steps
            # a fresh array, not a view of the loop's buffers
            assert run.control.base is None and run.control.flags.owndata
            outcomes.append((problem, run, control, history))
    # last, as the oracle skips the test where np.longdouble is a plain double
    for problem in {id(o[0]): o[0] for o in outcomes}.values():
        mine = [o for o in outcomes if o[0] is problem]
        blocked = np.max([pia_errors(problem, run.control, run.error_history)
                          for _, run, _, _ in mine], axis=0)
        stepped = np.max([pia_errors(problem, control, history)
                          for _, _, control, history in mine], axis=0)
        assert blocked[0] <= stepped[0] and blocked[1] <= 2 * stepped[1]


@pytest.mark.parametrize(
    "factor,scale,trip",
    [(1e100, 1.0, 2), (1 + 1e6 ** (1 / (FULL_EDGE - 0.5)), 1.0, FULL_EDGE + 1),
     (np.nan, 1.0, 1), (1e3, 1e300, 3)],
    ids=["overflow", "block-edge", "nan-error", "inf-error"],
)
def test_divergence_guard_trips_where_steps_do(monkeypatch, factor, scale, trip):
    # C = factor I scales each residual by 1 - factor per step, data scaled
    # by scale. At 1e100 the second error is 1e100 times the first, and the
    # dropped steps after it overflow, with no warning; the next factor
    # passes the guard's 1e6 on the first step of a block of BLOCK steps.
    # A NaN C gives a NaN first error; at 1e3 on data near 1e300 the third
    # error overflows to inf while the guard's limit, 1e6 times the first,
    # is past the largest double: NaN > limit and inf > inf are both false,
    # so the guard trips on any error that is not <= its limit
    monkeypatch.setattr(gtbezier.pia, "rational_basis_matrix",
                        lambda ns, w, params: factor * np.eye(5))
    circle = datasets.circle_problem()
    problem = FitProblem(scale * circle.data, circle.params, circle.nodeset, circle.weights)
    _step_loop(problem, trip - 1)
    with pytest.raises(DivergenceError) as stepped:
        _step_loop(problem, trip)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as blocked:
            pia_run(problem, max_iter=2 * BLOCK + 1)
    assert str(blocked.value) == str(stepped.value)


@pytest.mark.parametrize("scale", [2.0**664, 2.0**-664])
def test_run_takes_norms_without_overflow(scale):
    # data near 1e200 (or 1e-200) square past the double range; a power-of-two
    # scale leaves every other rounding of the run exact, so the scaled run
    # stops on the same step with the history scaled to rounding. A scale of
    # exactly 1e200 rounds the data, which perturbs the problem itself: its
    # history stays within 1e-9 (measured 5e-11 and 8e-11 at 1e-200)
    problem = datasets.circle_problem()
    base = pia_run(problem, 200, tol=1e-10)
    for s, rel in ((scale, 1e-12), (1e200 if scale > 1 else 1e-200, 1e-9)):
        scaled = FitProblem(s * problem.data, problem.params, problem.nodeset, problem.weights)
        state = pia_run(scaled, 200, tol=1e-10 * s)
        assert state.iteration == base.iteration == 121
        assert np.all(np.isfinite(state.error_history)) and 0 < min(state.error_history)
        np.testing.assert_allclose(state.error_history, s * np.array(base.error_history), rtol=rel)
        np.testing.assert_allclose(state.control, s * base.control, rtol=1e-14)


def _uniform_problem(n):
    """n uniform nodes on [0, 1] with unit coefficients and weights, scale
    n - 1, parameters at the nodes and data on a half circle: I - C is far
    from normal, and the fit error first rises before it falls."""
    t = np.linspace(0.0, 1.0, n)
    data = np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t)])
    return FitProblem(data, t, NodeSet(t, np.ones(n), n - 1), np.ones(n))


@pytest.mark.parametrize(
    "make,steps,rise",
    [(datasets.circle_problem, 121, 1.0), (datasets.helix_problem, HELIX_TOL_STEPS, 1.0),
     (lambda: _uniform_problem(31), 2000, 17.0), (lambda: _uniform_problem(64), 20000, 700.0)],
    ids=["circle", "helix", "uniform-31", "uniform-64"],
)
def test_run_accuracy_against_oracle(make, steps, rise):
    # powers of a non-normal M lose accuracy as |M^i| grows: on 31 and 64
    # uniform nodes the error first rises 17-fold (at step 991) and over
    # 700-fold (still rising at step 20000). The blocked history must be no
    # less accurate than the float step loop's, its controls within twice
    problem = make()
    run = pia_run(problem, steps)
    control, history = _step_loop(problem, steps)
    assert max(run.error_history) >= rise * run.error_history[0]
    blocked = pia_errors(problem, run.control, run.error_history)
    stepped = pia_errors(problem, control, history)
    assert blocked[0] <= stepped[0] and blocked[1] <= 2 * stepped[1]


def test_short_run_accuracy_on_uniform_nodes():
    # runs of 1-300 steps on 31 uniform nodes, while the error still rises:
    # the rounding of the powers grows with the transient, so the blocked
    # histories and controls are up to 4x and 7x farther from the long-double
    # oracle than the float step loop's (whose largest errors over these runs
    # are 1.6e-15 and 8.9e-16). Measured at most 4.4e-15 and 3.4e-15 over
    # numpy's default and AVX2 loops and OpenBLAS's default and Haswell
    # kernels; the bound is that with a margin
    problem = _uniform_problem(31)
    errors = [pia_errors(problem, run.control, run.error_history)
              for run in (pia_run(problem, k) for k in range(1, 301))]
    assert np.all(np.max(errors, axis=0) <= (6e-15, 5e-15))


def test_power_stack_fits_the_budget():
    # shapes only, no problem of that size: a run's two stacks of powers, the
    # inner M^1 .. M^(s - 1) and the outer M^s, M^(2s) .. M^((q - 1) s) for
    # blocks of q spans of s steps, hold s + q - 2 n x n matrices, and one
    # more fits the budget; full blocks up to 106 nodes (the helix's 31
    # included), blocks of fewer whole spans above, single steps and no
    # stacks where not even one span's powers fit, from 182 nodes on, up to
    # the largest fit the config accepts
    for n in (2, 5, 31, 64, 65, 106, 107, 170, 181, 182, 200, 363, MAX_FIT_NODES):
        span, spans = _block_shape(n, 10**6)
        b = span * spans
        assert 1 <= b <= BLOCK and (span + spans - 2) * n * n < _STACK_BUDGET
        assert b == 1 or (span + spans - 1) * n * n <= _STACK_BUDGET
        assert (b == BLOCK) == (n <= 106) and (b == 1) == (n > 181)
        assert b == 1 or (span == _SPAN and 1 <= spans <= _SPANS)
    assert _block_shape(31, 5) == (5, 1) and _block_shape(31, 0) == (1, 1)
    assert _block_shape(31, 20) == (_SPAN, 3)


def test_runs_form_only_the_powers_they_read(monkeypatch):
    # powers are formed as the blocks first need them. 5 steps take blocks of
    # 1, 1, 2 and 1 steps, which read M^1 only: the forming step is never
    # called. Otherwise the slots of both stacks not yet formed at its first
    # call are poisoned with NaN, so a block that read one would change the
    # run: 9 steps end in a block of 4, which reads M^1 .. M^3 and no outer
    # power; 30 steps end in a block of 14, two spans: M^1 .. M^7 and M^8
    form, problem = gtbezier.pia._powers, datasets.helix_problem()
    for steps, inner_formed, outer_formed in ((5, 1, 0), (9, 3, 0), (30, _SPAN - 1, 1)):
        expected, stacks = pia_run(problem, steps), []

        def poisoning(inner, outer, formed, need):
            if not stacks:
                inner[:, formed[0]:], outer[:, formed[1]:] = np.nan, np.nan
                stacks.extend((inner, outer))
            return form(inner, outer, formed, need)

        monkeypatch.setattr(gtbezier.pia, "_powers", poisoning)
        run = pia_run(problem, steps)
        monkeypatch.undo()
        assert np.array_equal(run.control, expected.control)
        assert run.error_history == expected.error_history
        assert bool(stacks) == (inner_formed > 1 or outer_formed > 0)
        for stack, count in zip(stacks, (inner_formed, outer_formed)):
            finite = np.isfinite(stack).all(axis=(0, 2))
            assert finite.tolist() == [True] * count + [False] * (len(finite) - count)


def test_single_steps_are_the_step_loop():
    # from 182 nodes on, each block is one float step: the step loop's
    # arithmetic, but for the rounding of the norms
    t = np.linspace(0.0, 1.0, 182)
    problem = FitProblem(np.column_stack([t, t * t]), t, NodeSet(t), np.ones(182))
    control, history = _step_loop(problem, 20)
    run = pia_run(problem, 20)
    assert np.array_equal(run.control, control)
    np.testing.assert_allclose(run.error_history, history, rtol=1e-15)


def test_collocation_built_once_and_read_only(monkeypatch):
    reference = datasets.circle_problem()
    calls = []
    build = gtbezier.pia.rational_basis_matrix

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gtbezier.pia, "rational_basis_matrix", counting)
    problem = FitProblem(reference.data, reference.params, reference.nodeset, reference.weights)
    data = problem.data.copy()
    pia_run(problem, max_iter=200)
    assert len(calls) == 1
    assert problem.collocation.flags.writeable is False
    np.testing.assert_array_equal(problem.data, data)
    np.testing.assert_array_equal(
        problem.collocation,
        rational_collocation_matrix(problem.nodeset, problem.weights, problem.params),
    )


@pytest.mark.parametrize("make", [datasets.circle_problem, datasets.helix_problem],
                         ids=["circle", "helix"])
def test_collocation_is_the_c_ordered_basis(make):
    # C is the basis bit for bit, C-ordered as BLAS reads it in PIA's
    # products, and within the row-major kernel's bound
    problem = make()
    c, args = problem.collocation, (problem.nodeset, problem.weights, problem.params)
    assert c.flags.c_contiguous
    assert np.array_equal(c.view(np.uint64), rational_basis_matrix(*args).view(np.uint64))
    assert near_row_major(c, row_major_basis(*args), problem.nodeset.size)


def test_fit_problem_checks_its_inputs_once_each(monkeypatch):
    # the collocation matrix is built from the parameters FitProblem has
    # checked: validate_params once, the basis layer's parameter check once,
    # and the weights once here and once in rational_basis_matrix
    checked = []
    reals = gtbezier.basis._reals

    def counting(values, name, *args):
        checked.append(name)
        return reals(values, name, *args)

    reference = datasets.circle_problem()
    monkeypatch.setattr(gtbezier.basis, "_reals", counting)
    problem = FitProblem(reference.data, reference.params, reference.nodeset, reference.weights)
    counts = {name: checked.count(name) for name in ("params", "parameters", "weights")}
    assert counts == {"params": 1, "parameters": 1, "weights": 2}
    np.testing.assert_array_equal(problem.collocation, reference.collocation)


def test_fitted_curve_wraps_state():
    problem = datasets.circle_problem()
    state = pia_run(problem, max_iter=5)
    curve = fitted_curve(problem, state)
    np.testing.assert_array_equal(curve.control, state.control)

"""Tests for curve evaluation, with classical and rational Bezier curves as
node-set curves on the Bernstein-equivalent node set."""

import tracemalloc

import numpy as np
import pytest

from gtbezier import (
    GTBezierCurve,
    NodeSet,
    bernstein_equivalent_nodeset,
    curve_points,
    sample_polyline,
)
from gtbezier import datasets
from gtbezier.basis import _BLOCK_VALUES
from bad_inputs import BAD_COUNTS
from oracles import bernstein_reference


def _convex_hull(points):
    """Monotone-chain hull, counterclockwise."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return pts

    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _in_hull(point, hull, tol=1e-9):
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        if (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax) < -tol:
            return False
    return True


def _linear_curve():
    ns = NodeSet([0, 1])
    return GTBezierCurve(ns, np.ones(2), np.array([[0.0, 0.0], [1.0, 1.0]]))


def _circle_curve():
    prob = datasets.circle_problem()
    return GTBezierCurve(prob.nodeset, prob.weights, prob.data)


def test_linear_midpoint():
    np.testing.assert_allclose(curve_points(_linear_curve(), [0.5])[0], [0.5, 0.5], atol=1e-15)


def test_endpoint_interpolation_exact():
    for curve in (_linear_curve(), _circle_curve()):
        a0, an = curve.nodeset.domain
        np.testing.assert_array_equal(curve_points(curve, [a0, an]),
                                      curve.control[[0, -1]])


def test_curve_points_hold_one_block():
    # the points once came from the whole (N, n + 1) basis, 25 MB at this
    # grid; the blocks are contracted one at a time into the (N, d) result
    prob = datasets.helix_problem()
    curve = GTBezierCurve(prob.nodeset, prob.weights, prob.data)
    ts = np.linspace(*prob.nodeset.domain, 100001)
    tracemalloc.start()
    try:
        points = curve_points(curve, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (ts.size, 3)
    assert peak <= 1.25 * (points.nbytes + _BLOCK_VALUES * 8)


def test_curve_points_scale_exactly_to_the_top_of_the_range():
    # a block is contracted before it is normalized, and its columns sum to
    # up to n + 1: unscaled, controls near the largest double overflow there
    helix, w = datasets.helix_node_set(), datasets.helix_weights()
    control = datasets.helix_samples()
    top = 1024 - np.frexp(np.max(np.abs(control)))[1]  # the largest shift that stays finite
    ts = np.linspace(*helix.domain, 1001)
    small = curve_points(GTBezierCurve(helix, w, control), ts)
    for shift in (top - 6, top):  # below and above _FLOAT_MAX / (n + 1)
        big = curve_points(GTBezierCurve(helix, w, np.ldexp(control, shift)), ts)
        np.testing.assert_array_equal(big, np.ldexp(small, shift))
    line = GTBezierCurve(NodeSet([0, 1]), None, [[1e308, -1e308], [1e308, 1.0]])
    np.testing.assert_array_equal(curve_points(line, [0.0, 0.5, 1.0]),
                                  [[1e308, -1e308], [1e308, -0.5e308], [1e308, 1.0]])


def test_sample_polyline_counts():
    curve = _linear_curve()
    np.testing.assert_array_equal(sample_polyline(curve, 2), [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(
        sample_polyline(curve, 3), [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], atol=1e-15
    )
    with pytest.raises(ValueError, match="count must be at least 2"):
        sample_polyline(curve, 1)


@pytest.mark.parametrize("count", [*BAD_COUNTS, 3.0])
def test_sample_polyline_rejects_non_integer_count(count):
    # the count rule: NaN passed `count < 2`, and every float reached
    # np.linspace, whose TypeError named no argument
    curve = _linear_curve()
    with pytest.raises((TypeError, ValueError), match="count must be"):
        sample_polyline(curve, count)
    np.testing.assert_array_equal(sample_polyline(curve, np.int64(3)), sample_polyline(curve, 3))


def test_polyline_stays_in_control_hull():
    curve = _circle_curve()
    hull = _convex_hull(curve.control)
    for p in sample_polyline(curve, 101):
        assert _in_hull(p, hull)


def test_construction_errors():
    ns = NodeSet([0, 1, 2])
    with pytest.raises(ValueError, match="match node count"):
        GTBezierCurve(ns, np.ones(3), np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
        GTBezierCurve(ns, np.ones(3), np.ones((3, 4)))
    with pytest.raises(ValueError, match="at least two"):
        GTBezierCurve(ns, np.ones(3), np.ones((1, 2)))
    # three numbers are not three points: a wrong dimension, not a short polygon
    with pytest.raises(ValueError, match=r"points must be a list of lists .* \(found depth 1\)"):
        GTBezierCurve(ns, np.ones(3), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        GTBezierCurve(ns, np.ones(3), np.array([[0, 0], [1, np.inf], [2, 0]]))


def test_classical_bezier_line_segment():
    curve = GTBezierCurve(bernstein_equivalent_nodeset(1), np.ones(2), [[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(curve_points(curve, [0.5])[0], [0.5, 0.0], atol=1e-15)


def test_classical_bezier_quadratic_midpoint():
    # de Casteljau midpoint of [(0,0), (1,2), (2,0)] is (1, 1); x=0.5 -> t=1
    curve = GTBezierCurve(bernstein_equivalent_nodeset(2), np.ones(3),
                          [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(curve_points(curve, [1.0])[0], [1.0, 1.0], atol=1e-14)


def _de_casteljau(control, x):
    b = np.array(control, dtype=float)
    while b.shape[0] > 1:
        b = (1.0 - x) * b[:-1] + x * b[1:]
    return b[0]


def test_classical_bezier_matches_de_casteljau():
    rng = np.random.default_rng(19)
    control = rng.normal(size=(5, 2))
    curve = GTBezierCurve(bernstein_equivalent_nodeset(4), np.ones(5), control)
    for x in np.linspace(0.0, 1.0, 100):
        np.testing.assert_allclose(curve_points(curve, [4 * x])[0], _de_casteljau(control, x),
                                   atol=1e-12)


def test_classical_bezier_matches_bernstein_sum():
    rng = np.random.default_rng(20)
    control = rng.normal(size=(5, 3))
    curve = GTBezierCurve(bernstein_equivalent_nodeset(4), np.ones(5), control)
    xs = np.linspace(0.0, 1.0, 100)
    got = curve_points(curve, 4 * xs)
    oracle = np.array(
        [sum(bernstein_reference(4, i, x) * control[i] for i in range(5)) for x in xs]
    )
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_rational_bezier_unit_weights_is_classical():
    rng = np.random.default_rng(21)
    control = rng.normal(size=(4, 2))
    ns = bernstein_equivalent_nodeset(3)
    ts = np.linspace(0.0, 3.0, 50)
    oracle = np.array(
        [sum(bernstein_reference(3, i, t / 3) * control[i] for i in range(4)) for t in ts]
    )
    # equal weights, of any size, cancel in the rational basis
    for w in (np.ones(4), np.full(4, 2.5)):
        np.testing.assert_allclose(curve_points(GTBezierCurve(ns, w, control), ts), oracle,
                                   atol=1e-14)


def test_rational_bezier_matches_direct_formula():
    control = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    weights = np.array([1.0, 2.0, 1.0])
    curve = GTBezierCurve(bernstein_equivalent_nodeset(2), weights, control)
    for x in (0.25, 0.5, 0.75):
        b = np.array([bernstein_reference(2, i, x) for i in range(3)])
        oracle = (weights * b) @ control / (weights * b).sum()
        np.testing.assert_allclose(curve_points(curve, [2 * x])[0], oracle, atol=1e-14)
    # the x=0.5 point is pulled toward the middle control point
    mid_classical = _de_casteljau(control, 0.5)
    mid_rational = curve_points(curve, [1.0])[0]
    assert mid_rational[1] > mid_classical[1]


def test_rational_bezier_example_weights():
    ns = bernstein_equivalent_nodeset(4)
    curve = GTBezierCurve(ns, np.array(datasets.CIRCLE_WEIGHTS), datasets.circle_samples())
    assert curve.dim == 2
    with pytest.raises(ValueError, match="length"):
        GTBezierCurve(ns, np.ones(4), datasets.circle_samples())


def test_affine_invariance():
    rng = np.random.default_rng(22)
    curve = _circle_curve()
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    mapped = GTBezierCurve(curve.nodeset, curve.weights, curve.control @ a.T + b)
    ts = np.linspace(*curve.nodeset.domain, 40)
    np.testing.assert_allclose(
        curve_points(curve, ts) @ a.T + b, curve_points(mapped, ts), atol=1e-10
    )


def test_eval_out_of_domain():
    with pytest.raises(ValueError, match="domain"):
        curve_points(_linear_curve(), [2.0])

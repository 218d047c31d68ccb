"""Tests for the node-set basis functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtbezier import (
    GTBezierCurve,
    NodeSet,
    bernstein_equivalent_nodeset,
    curve_points,
    log_basis_matrix,
    power_reduction,
    rational_basis_matrix,
    validate_weights,
)
from gtbezier import datasets
from gtbezier.basis import MAX_EXPONENT_SPAN
from oracles import bernstein_reference, mp_rational_basis


def test_validate_minimal():
    ns = NodeSet([0, 1], [1, 1], 1)
    assert ns.size == 2
    assert ns.domain == (0.0, 1.0)


def test_validate_defaults_coefficients_to_one():
    ns = NodeSet([0, 2, 5])
    assert np.all(ns.coefficients == 1.0)


def test_validate_example_configuration():
    ns = NodeSet(
        [0, math.pi / 4, math.pi / 2, math.pi**2 / 4, math.pi],
        [1, 0.9, 0.8, 0.9, 1],
        4.5,
    )
    assert ns.size == 5


@pytest.mark.parametrize(
    "nodes,coeffs,scale,msg",
    [
        ([0], [1], 1, "at least two"),
        ([], None, 1, "at least two"),
        ([0, 0], [1, 1], 1, "degenerate"),
        ([1, 0], [1, 1], 1, "non-decreasing"),
        ([0, 1], [1, -1], 1, "positive"),
        ([0, 1], [0, 1], 1, "positive"),
        ([0, 1], [1, 1], 0, "positive"),
        ([0, 1], [1, 1], -2, "positive"),
        ([0, 1], [1], 1, "match nodes"),
        ([0, 1, 2, 3], None, 1e308, r"scale \* \(a_n - a_0\) must be at most"),
        ([-1e308, 1e308], None, 1, r"scale \* \(a_n - a_0\) must be at most"),
    ],
)
def test_validate_rejects(nodes, coeffs, scale, msg):
    with pytest.raises(ValueError, match=msg):
        NodeSet(nodes, coeffs, scale)


def test_repeated_interior_nodes_accepted():
    ns = NodeSet([0, 1, 1, 2])
    assert ns.size == 4


def test_validate_weights():
    ns = NodeSet([0, 1])
    assert np.all(validate_weights(ns, None) == 1.0)
    with pytest.raises(ValueError, match="positive"):
        validate_weights(ns, [1, -1])
    with pytest.raises(ValueError, match="length"):
        validate_weights(ns, [1, 1, 1])


@pytest.mark.parametrize(
    "weights,msg",
    [
        ([1.0, 0.0, 1.0], "positive"),
        ([1.0, -1.0, 1.0], "positive"),
        ([1.0, np.nan, 1.0], "finite"),
        ([1.0, 1.0], "length"),
    ],
    ids=["zero", "negative", "nan", "wrong-length"],
)
def test_rational_basis_checks_weights(weights, msg):
    # checked before the basis is built: a zero weight would give an all-zero
    # column, a negative one a NaN row
    with pytest.raises(ValueError, match=msg):
        rational_basis_matrix(NodeSet([0.0, 1.0, 2.0]), weights, [0.5, 1.0])


def _raw(ns, t):
    """Raw basis values at one parameter."""
    return np.exp(log_basis_matrix(ns, t))[0]


def test_eval_linear_hand_values():
    # beta_0(t) = 1 - t and beta_1(t) = t on nodes {0, 1}
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(_raw(ns, 0.5), [0.5, 0.5], atol=1e-15)
    assert _raw(ns, 0.0).tolist() == [1.0, 0.0]


def test_eval_degenerates_to_quadratic_bernstein():
    ns = NodeSet([0, 1, 2], [0.25, 0.5, 0.25])
    # t = 2x with x = 0.5: B^2_1(0.5) = 2 * 0.5 * 0.5
    assert _raw(ns, 1.0)[1] == pytest.approx(0.5, abs=1e-15)


def test_eval_errors():
    ns = NodeSet([0, 1])
    for ts in (1.5, -0.1, [0.2, 1.5]):
        with pytest.raises(ValueError, match="domain"):
            log_basis_matrix(ns, ts)
        with pytest.raises(ValueError, match="domain"):
            rational_basis_matrix(ns, validate_weights(ns), ts)


_GRID_EVALUATORS = {
    "log_basis_matrix": log_basis_matrix,
    "rational_basis_matrix": lambda ns, ts: rational_basis_matrix(ns, None, ts),
    "curve_points": lambda ns, ts: curve_points(GTBezierCurve(ns, None, [[0, 0], [1, 2], [2, 0]]), ts),
}


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (5, 5), (2, 0)])
@pytest.mark.parametrize("evaluate", _GRID_EVALUATORS.values(), ids=_GRID_EVALUATORS.keys())
def test_parameter_grid_must_be_one_dimensional(evaluate, shape):
    # a 2-D grid once raised IndexError or came back as a 3-D array
    ns = NodeSet([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        evaluate(ns, np.full(shape, 0.5))
    assert evaluate(ns, 0.5).shape[0] == evaluate(ns, [0.5]).shape[0] == 1


def test_rational_symmetry():
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(rational_basis_matrix(ns, validate_weights(ns), [0.5]),
                               [[0.5, 0.5]], atol=1e-15)


def test_rational_endpoint_vectors_exact():
    ns = NodeSet([0, 1])
    assert rational_basis_matrix(ns, validate_weights(ns), [0.0, 1.0]).tolist() == [
        [1.0, 0.0], [0.0, 1.0]]
    prob = datasets.circle_problem()
    lo, hi = rational_basis_matrix(prob.nodeset, prob.weights, prob.nodeset.domain)
    assert lo.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert hi.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_rational_partition_at_midpoint():
    prob = datasets.circle_problem()
    a0, an = prob.nodeset.domain
    row = rational_basis_matrix(prob.nodeset, prob.weights, [0.5 * (a0 + an)])[0]
    assert abs(row.sum() - 1.0) < 1e-12
    assert np.all(row >= 0)


def test_partition_of_unity_random_parameters():
    rng = np.random.default_rng(42)
    for prob in (datasets.circle_problem(), datasets.helix_problem()):
        a0, an = prob.nodeset.domain
        ts = rng.uniform(a0, an, size=200)
        mat = rational_basis_matrix(prob.nodeset, prob.weights, ts)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-12


def test_nonnegativity_random_node_sets():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        nodes = np.sort(rng.uniform(-2, 3, n + 1))
        if nodes[0] == nodes[-1]:
            continue
        ns = NodeSet(nodes, rng.uniform(0.1, 3.0, n + 1), rng.uniform(0.1, 3.0))
        ts = rng.uniform(nodes[0], nodes[-1], 20)
        assert np.all(np.exp(log_basis_matrix(ns, ts)) >= 0)
        vals = rational_basis_matrix(ns, validate_weights(ns, None), ts)
        assert np.all(vals >= 0)


@st.composite
def _basis_cases(draw):
    """A node set (repeated nodes allowed), weights and parameters that
    include both endpoints. Nodes lie on a grid offset + step * k with
    integer k, so equal and distinct nodes stay so in floating point."""
    ks = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=9)))
    if ks[0] == ks[-1]:
        ks[-1] += 1
    size = len(ks)
    offset = draw(st.floats(-100.0, 100.0))
    step = draw(st.floats(0.01, 10.0))
    positive = st.floats(1e-3, 1e3)
    ns = NodeSet(offset + step * np.array(ks, dtype=float),
                 draw(st.lists(positive, min_size=size, max_size=size)),
                 draw(st.floats(0.01, 50.0)))
    weights = np.array(draw(st.lists(positive, min_size=size, max_size=size)))
    a0, an = ns.domain
    us = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=8)))
    ts = np.concatenate([[a0, an], np.clip(a0 + us * (an - a0), a0, an)])
    return ns, weights, ts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_basis_cases())
def test_rational_basis_properties(case):
    ns, weights, ts = case
    mat = rational_basis_matrix(ns, weights, ts)
    assert np.all(mat >= 0)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12
    for row, end in zip(mat[:2], ns.domain):
        at_end = ns.nodes == end
        assert np.all(row[~at_end] == 0.0)
        if np.count_nonzero(at_end) == 1:
            assert row.tolist() == at_end.astype(float).tolist()


def test_bernstein_reference_values():
    assert bernstein_reference(2, 1, 0.5) == pytest.approx(0.5)
    assert bernstein_reference(3, 0, 0.0) == 1.0
    # C(5,2) * 0.3^2 * 0.7^3 = 10 * 0.09 * 0.343
    assert bernstein_reference(5, 2, 0.3) == pytest.approx(0.3087, abs=1e-15)
    with pytest.raises(IndexError):
        bernstein_reference(3, 4, 0.5)
    with pytest.raises(ValueError):
        bernstein_reference(3, 1, 1.5)


def test_bernstein_equivalent_small_degrees():
    ns1 = bernstein_equivalent_nodeset(1)
    np.testing.assert_array_equal(ns1.nodes, [0.0, 1.0])
    np.testing.assert_array_equal(ns1.coefficients, [1.0, 1.0])
    assert ns1.scale == 1.0
    ns2 = bernstein_equivalent_nodeset(2)
    np.testing.assert_array_equal(ns2.coefficients, [0.25, 0.5, 0.25])
    with pytest.raises(ValueError):
        bernstein_equivalent_nodeset(0)


def test_degeneration_matches_bernstein_oracle():
    xs = np.linspace(0.0, 1.0, 1000)
    for n in (1, 4, 8):
        ns = bernstein_equivalent_nodeset(n)
        gt = np.exp(log_basis_matrix(ns, n * xs))
        oracle = np.array([[bernstein_reference(n, i, x) for i in range(n + 1)] for x in xs])
        assert np.max(np.abs(gt - oracle)) < 1e-12


def test_scale_enters_only_through_reparametrization():
    # With fixed nodes and weights, changing the scale reparametrizes the
    # rational basis: values at t under scale l equal values at t' under
    # scale l', where (t'-a0)/(an-t') = ((t-a0)/(an-t)) ** (l/l').
    xi = datasets.circle_parameters()
    a0, an = xi[0], xi[-1]
    w = np.array(datasets.CIRCLE_WEIGHTS)
    la, lb = 1.3, 2.9
    ns_a = NodeSet(xi, np.ones(5), la)
    ns_b = NodeSet(xi, np.ones(5), lb)
    ts = np.linspace(a0 + 1e-3, an - 1e-3, 57)
    x = (ts - a0) / (an - ts)
    xb = x ** (la / lb)
    tb = (a0 + an * xb) / (1.0 + xb)
    dev = np.max(np.abs(rational_basis_matrix(ns_a, w, ts) - rational_basis_matrix(ns_b, w, tb)))
    assert dev < 1e-9
    # same-parameter values do differ; report the size of the effect
    raw_dev = np.max(np.abs(rational_basis_matrix(ns_a, w, ts) - rational_basis_matrix(ns_b, w, ts)))
    print(f"scale {la} vs {lb} same-parameter basis deviation: {raw_dev:.3e}")


def test_huge_exponents_stay_finite():
    # scale * span around 195: raw values overflow a double, but the
    # rational basis must stay finite and normalized
    xi = datasets.helix_parameters()
    ns = NodeSet(xi, np.full(31, 1.0 / 900), 31.1)
    w = datasets.helix_weights()
    ts = np.linspace(xi[0], xi[-1], 501)
    vals = rational_basis_matrix(ns, w, ts)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12


def test_largest_exponent_span_stays_finite():
    # scale * span at MAX_EXPONENT_SPAN: each log term is near 1e302, which
    # a double still holds; endpoint and next-to-endpoint rows included
    ns = NodeSet([0.0, 0.25, 0.5, 1.0], scale=MAX_EXPONENT_SPAN)
    ts = [0.0, np.nextafter(0.0, 1.0), 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0]
    vals = rational_basis_matrix(ns, np.ones(4), ts)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_kernel_edge_cases():
    # a parameter a subnormal step from an endpoint at 0: s(t) is a difference
    # of logs, so the ratio (t - a0)/(an - t) never under- or overflows
    tiny = 5e-324
    right = NodeSet([0.0, 5.0, 10.0])
    left = NodeSet([-10.0, -5.0, 0.0])
    assert rational_basis_matrix(right, None, [tiny]).tolist() == [[1.0, 0.0, 0.0]]
    assert rational_basis_matrix(left, None, [-tiny]).tolist() == [[0.0, 0.0, 1.0]]
    assert power_reduction(right, [tiny, 1.0])[0].tolist() == [1.0, 0.0, 0.0]
    # c * w reaches 1e400, beyond a double; log c + log w does not overflow
    big = NodeSet([0.0, 1.0, 2.0, 3.0], [1e200, 1e200, 1.0, 1.0])
    vals = rational_basis_matrix(big, [1e200, 1.0, 1e200, 1.0], [0.0, 1e-300, 0.5, 1.5, 2.9, 3.0])
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-15


# max / mean relative error against mp_rational_basis of the kernel that
# summed log c, e0*log h0 and e1*log h1 per entry, on the grid of
# test_rational_basis_matches_mpmath, rounded up to three digits
_LOG_SUM_ERRORS = {"circle": (7.22e-15, 3.74e-16), "helix": (7.16e-14, 6.85e-15),
                   "raw-helix": (3.93e-13, 8.64e-14), "repeated": (1.12e-14, 9.41e-16)}


@pytest.mark.parametrize("case", range(4), ids=_LOG_SUM_ERRORS.keys())
def test_rational_basis_matches_mpmath(case):
    # the softmax in s(t) is on average no less accurate than the summed
    # log basis, and its worst entry at most 1.25 times worse
    ns, w = _kernel_cases()[case]
    a0, an = ns.domain
    ts = np.concatenate([np.linspace(a0, an, 62), np.random.default_rng(5).uniform(a0, an, 300)])
    got, want = rational_basis_matrix(ns, w, ts), mp_rational_basis(ns, w, ts)
    assert np.all((got == 0.0) == (want == 0.0))
    resolved = want > 1e-290
    rel = np.abs(got[resolved] - want[resolved]) / want[resolved]
    max_err, mean_err = list(_LOG_SUM_ERRORS.values())[case]
    assert rel.max() <= 1.25 * max_err
    assert rel.mean() <= mean_err


def _where_log_basis(ns, ts):
    """log_basis_matrix as one np.where per endpoint term: the bit-exact
    reference for the in-place kernel."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    a0, an = ns.domain
    e0, e1 = ns.scale * (ns.nodes - a0), ns.scale * (an - ns.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h0 = np.log(ns.scale * (ts - a0))[:, None]
        log_h1 = np.log(ns.scale * (an - ts))[:, None]
        term0 = np.where(e0[None, :] == 0.0, 0.0, e0[None, :] * log_h0)
        term1 = np.where(e1[None, :] == 0.0, 0.0, e1[None, :] * log_h1)
    return np.log(ns.coefficients)[None, :] + term0 + term1


def _where_rational_basis(ns, w, ts):
    """rational_basis_matrix as the softmax in s(t) = log(t - a0) - log(an - t)
    written out with np.where for the endpoint rows: the bit-exact reference
    for the in-place kernel."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))[:, None]
    a0, an = ns.domain
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = (np.log(ts - a0) - np.log(an - ts)) * (ns.scale * (ns.nodes - a0))[None, :]
    powers = np.where(ts == a0, np.where(ns.nodes == a0, 0.0, -np.inf),
                      np.where(ts == an, np.where(ns.nodes == an, 0.0, -np.inf), powers))
    logits = powers + (np.log(ns.coefficients) + np.log(w))[None, :]
    raw = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return raw / raw.sum(axis=1, keepdims=True)


def _kernel_cases():
    helix = datasets.helix_node_set()
    raw = NodeSet(helix.nodes, helix.coefficients, datasets.HELIX_SHARPNESS)
    # repeated first and last nodes: three columns with e0 == 0, two with e1 == 0
    repeated = NodeSet([0, 0, 0, 1, 2.5, 3, 3], [1, 2, 3, 4, 5, 6, 7], 2.5)
    return [(datasets.circle_node_set(), np.array(datasets.CIRCLE_WEIGHTS)),
            (helix, datasets.helix_weights()), (raw, datasets.helix_weights()),
            (repeated, np.linspace(0.5, 2.0, 7))]


@pytest.mark.parametrize("case", range(4))
def test_basis_kernel_equals_where_formula(case):
    ns, w = _kernel_cases()[case]
    a0, an = ns.domain
    rng = np.random.default_rng(case)
    ts = np.concatenate([[a0, an], np.linspace(a0, an, 1001), np.sort(rng.uniform(a0, an, 999))])
    for got, want in ((log_basis_matrix(ns, ts), _where_log_basis(ns, ts)),
                      (rational_basis_matrix(ns, w, ts), _where_rational_basis(ns, w, ts))):
        assert got.shape == want.shape == (ts.size, ns.size)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    first, second = rational_basis_matrix(ns, w, ts), rational_basis_matrix(ns, w, ts)
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable and log_basis_matrix(ns, ts).flags.writeable

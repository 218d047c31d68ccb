"""Tests for the node-set basis functions."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtbezier import (
    GTBezierCurve,
    NodeSet,
    bernstein_equivalent_nodeset,
    curve_points,
    is_totally_positive,
    rational_basis_matrix,
    validate_params,
    validate_weights,
)
from gtbezier import datasets
from gtbezier import basis
from gtbezier.basis import MAX_EXPONENT_SPAN, _reals
from gtbezier.curve import as_control_polygon
from bad_inputs import BAD_ARRAYS, BAD_COUNTS, BAD_TOLERANCES
from oracles import (CURVE_POINTS_ERROR, bernstein_reference, mp_curve_points, mp_rational_basis,
                     near_row_major, raw_log_basis, row_major_basis)


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
        ([0, 1], [1, 1], -2, "scale must be a finite number >= 0"),
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


@pytest.mark.parametrize("scale", [*BAD_TOLERANCES, 0, 10**400])
def test_scale_rejects_bad_values(scale):
    # the tolerance rule, then > 0: "2" and True once became 2.0 and 1.0
    with pytest.raises((TypeError, ValueError), match="^scale must be "):
        NodeSet([0, 1], scale=scale)


def test_node_sets_compare_by_identity():
    # the dataclass-made == compared ndarray fields and raised "truth value of
    # an array is ambiguous"; its __hash__ was None
    ns = NodeSet([0, 1, 2])
    assert ns == ns and ns in [ns] and ns != NodeSet(ns.nodes)
    assert hash(ns) == hash(ns)
    assert datasets.circle_problem() != datasets.circle_problem()


# Every entry point of the array rule: the name its errors give, a good array
# and the call that checks it.
_ARRAY_ENTRY_POINTS = {
    "nodes": ([0, 1, 2], NodeSet),
    "coefficients": ([1, 1, 1], lambda a: NodeSet([0, 1, 2], a)),
    "weights": ([1, 1, 1], lambda a: validate_weights(NodeSet([0, 1, 2]), a)),
    "params": ([0, 1, 2], lambda a: validate_params(NodeSet([0, 1, 2]), a)),
    "parameters": ([0, 1, 2], lambda a: rational_basis_matrix(NodeSet([0, 1, 2]), None, a)),
    "points": ([[0, 0], [1, 1], [2, 0]], as_control_polygon),
    "matrix": ([[1, 0], [0, 1]], is_totally_positive),
}


@pytest.mark.parametrize("row", BAD_ARRAYS)
@pytest.mark.parametrize("name", _ARRAY_ENTRY_POINTS)
def test_array_rule_rejects_bad_arrays(name, row):
    good, check = _ARRAY_ENTRY_POINTS[name]
    make, error = BAD_ARRAYS[row]
    check(good)
    if name == "parameters" and row == "too-shallow":  # a scalar parameter is one
        assert rational_basis_matrix(NodeSet([0, 1, 2]), None, make(good)).shape == (1, 3)
        return
    with pytest.raises(error, match=f"^{name} must be "):
        check(make(good))


def test_array_rule_reads_ndarrays_by_dtype():
    floats = np.array([0.0, 0.5, 2.0])
    assert _reals(floats, "x", 1) is floats  # no copy
    np.testing.assert_array_equal(_reals(np.array([0, 1, 4], dtype=np.uint8), "x", 1), [0, 1, 4])
    np.testing.assert_array_equal(_reals(np.array([0.5, 2], dtype=object), "x", 1), [0.5, 2])
    for bad in (np.array([True, False]), np.array(["0", "1"]), np.array([0, 1j]),
                np.array([0.5, None], dtype=object)):
        with pytest.raises(TypeError, match=r"^x must be a list of finite numbers \(found "):
            _reals(bad, "x", 1)


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


def _row(ns, t):
    """Basis values at one parameter, unit weights: where the raw basis sums
    to one, as on the node sets below, the raw values themselves."""
    return rational_basis_matrix(ns, None, t)[0]


def test_eval_linear_hand_values():
    # beta_0(t) = 1 - t and beta_1(t) = t on nodes {0, 1}
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(_row(ns, 0.5), [0.5, 0.5], atol=1e-15)
    assert _row(ns, 0.0).tolist() == [1.0, 0.0]


def test_eval_degenerates_to_quadratic_bernstein():
    ns = NodeSet([0, 1, 2], [0.25, 0.5, 0.25])
    # t = 2x with x = 0.5: B^2_1(0.5) = 2 * 0.5 * 0.5
    assert _row(ns, 1.0)[1] == pytest.approx(0.5, abs=1e-15)


def test_eval_errors():
    ns = NodeSet([0, 1])
    for ts in (1.5, -0.1, [0.2, 1.5]):
        with pytest.raises(ValueError, match="domain"):
            rational_basis_matrix(ns, validate_weights(ns), ts)


_GRID_EVALUATORS = {
    "rational_basis_matrix": lambda ns, ts: rational_basis_matrix(ns, None, ts),
    "curve_points": lambda ns, ts: curve_points(GTBezierCurve(ns, None, [[0, 0], [1, 2], [2, 0]]), ts),
}


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (5, 5), (2, 0)])
@pytest.mark.parametrize("evaluate", _GRID_EVALUATORS.values(), ids=_GRID_EVALUATORS.keys())
def test_parameter_grid_must_be_one_dimensional(evaluate, shape):
    # a 2-D grid once raised IndexError or came back as a 3-D array
    ns = NodeSet([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"parameters must be .* \(found depth 2\)"):
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
        assert np.all(np.exp(raw_log_basis(ns, ts)) >= 0)
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
    with pytest.raises(ValueError, match="degree must be at least 1"):
        bernstein_equivalent_nodeset(0)
    for n in BAD_COUNTS:
        with pytest.raises((TypeError, ValueError), match="degree must be"):
            bernstein_equivalent_nodeset(n)


def test_degeneration_matches_bernstein_oracle():
    xs = np.linspace(0.0, 1.0, 1000)
    for n in (1, 4, 8):
        ns = bernstein_equivalent_nodeset(n)
        gt = rational_basis_matrix(ns, None, n * xs)
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
    got, want = rational_basis_matrix(ns, w, ts), row_major_basis(ns, w, ts)
    assert got.shape == want.shape == (ts.size, ns.size)
    assert near_row_major(got, want, ns.size)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    first, second = rational_basis_matrix(ns, w, ts), rational_basis_matrix(ns, w, ts)
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _bit_identity_cases():
    """(id, node set, weights): the datasets' node sets, the Bernstein node
    sets of degree 1..8 and random node sets of 2..300 nodes, whose counts
    fall on each side of the 8- and 128-term branches of numpy's pairwise
    sum, which row_major_basis takes."""
    cases = [(f"kernel-{i}", ns, w) for i, (ns, w) in enumerate(_kernel_cases())]
    cases += [(f"bernstein-{n}", bernstein_equivalent_nodeset(n), None) for n in range(1, 9)]
    rng = np.random.default_rng(20)
    for n in (2, 7, 8, 9, 16, 17, 64, 128, 129, 130, 300):
        nodes = np.sort(rng.uniform(-2.0, 3.0, n))
        ns = NodeSet(nodes, rng.uniform(0.1, 10.0, n), rng.uniform(0.5, 40.0) / (nodes[-1] - nodes[0]))
        cases.append((f"random-{n}", ns, rng.uniform(0.1, 10.0, n)))
    return cases


_BIT_CASES = _bit_identity_cases()


@pytest.mark.parametrize("count", [1, 2, 4099])
@pytest.mark.parametrize("case", range(len(_BIT_CASES)), ids=[c[0] for c in _BIT_CASES])
def test_basis_equals_row_major_kernel(case, count):
    # the node-major blocks give the parameter-major kernel's values within
    # its bound, C-ordered like it, and each row the bits of a one-parameter
    # call; grids of two and more hold both ends
    _, ns, w = _BIT_CASES[case]
    a0, an = ns.domain
    rng = np.random.default_rng([case, count])
    ts = rng.uniform(a0, an, count)
    ts[:2] = (a0 + an) / 2 if count == 1 else (an, a0)
    got = rational_basis_matrix(ns, w, ts)
    assert got.flags.c_contiguous
    assert near_row_major(got, row_major_basis(ns, w, ts), ns.size)
    rows = np.unique(np.r_[:min(count, 2), count - 1, rng.choice(count, min(count, 64), False)])
    assert _same_bits(got[rows], _one_at_a_time(ns, w, ts[rows]))


def _one_at_a_time(ns, w, ts):
    return np.array([rational_basis_matrix(ns, w, [t])[0] for t in ts])


@pytest.mark.parametrize("case", range(len(_BIT_CASES)), ids=[c[0] for c in _BIT_CASES])
def test_basis_rows_add_in_node_order(case):
    # each row is its exponentials divided by their sum added from the first
    # node on, bit for bit, whatever numpy's own order for a row
    _, ns, w = _BIT_CASES[case]
    a0, an = ns.domain
    ts = np.concatenate([[an, a0], np.random.default_rng(case).uniform(a0, an, 301)])
    got = rational_basis_matrix(ns, w, ts)
    assert _same_bits(got, row_major_basis(ns, w, ts, node_order=True))


@pytest.mark.parametrize("ns, ts", [
    (NodeSet([0.0, 5.0, 10.0]), [0.0, 5e-324, 5.0, 10.0]),  # a subnormal step from a_0 = 0
    (NodeSet([-10.0, -5.0, 0.0]), [-10.0, -5.0, -5e-324, 0.0]),
    (NodeSet([0.0, 0.25, 0.5, 1.0], scale=MAX_EXPONENT_SPAN),
     [0.0, np.nextafter(0.0, 1.0), 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0]),
    (NodeSet([0.0, 1e-300, 2.0], scale=0.5 * MAX_EXPONENT_SPAN), [0.0, 1e-300, 1.0, 2.0]),
    (NodeSet([0, 0, 0, 1, 2.5, 3, 3], [1, 2, 3, 4, 5, 6, 7], 2.5), [3.0, 0.0, 0.0, 1.0, 2.5, 3.0]),
    (NodeSet([0, 1, 1, 1, 2], [1e200, 1.0, 1e-200, 3.0, 1e200]), [0.0, 1.0, 1.0 + 1e-15, 2.0]),
], ids=["subnormal-left", "subnormal-right", "max-span", "half-max-span", "repeated-ends",
        "repeated-interior"])
def test_basis_edge_cases_equal_row_major_kernel(ns, ts):
    got = rational_basis_matrix(ns, None, ts)
    assert near_row_major(got, row_major_basis(ns, None, ts), ns.size)
    assert _same_bits(got, _one_at_a_time(ns, None, ts))


@pytest.mark.parametrize("values", [1, 8, 40, 300])
def test_basis_blocks_equal_row_major_kernel(monkeypatch, values):
    # a budget of a few values per block: many blocks, a short last one, and
    # single-column blocks; every parameter's row has the bits of the default
    # block's and of a one-parameter call
    for _, ns, w in _BIT_CASES[:3] + _BIT_CASES[-2:]:
        a0, an = ns.domain
        ts = np.concatenate([[an, a0], np.random.default_rng(values).uniform(a0, an, 301)])
        default, alone = rational_basis_matrix(ns, w, ts), _one_at_a_time(ns, w, ts)
        with monkeypatch.context() as patch:
            patch.setattr(basis, "_BLOCK_VALUES", values)
            got = rational_basis_matrix(ns, w, ts)
        assert near_row_major(got, row_major_basis(ns, w, ts), ns.size)
        assert _same_bits(got, default) and _same_bits(got, alone)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 4099, 20001])
@pytest.mark.parametrize("case", range(3), ids=["circle", "helix", "raw-helix"])
def test_curve_points_equal_row_major_product(case, count, dim):
    # every row against the product of the row-major basis, its rows summed
    # in the kernel's order: (e.T @ P) / s and (e / s) @ P, with the same s,
    # each sum n + 1 products and round once more, so they differ by at most
    # (n + 2) eps (B @ |P|) to first order, one more eps for the rest
    # (measured: 2.6 eps on the circle, 4.9 on the raw helix); the last bits
    # follow BLAS's kernel, so they are not pinned
    ns, w = _kernel_cases()[case]
    rng = np.random.default_rng([case, count, dim])
    control = rng.standard_normal((ns.size, dim))
    ts = rng.uniform(*ns.domain, count)
    if count > 1:
        ts[:2] = ns.domain
    got = curve_points(GTBezierCurve(ns, w, control), ts)
    basis_rows = row_major_basis(ns, w, ts, node_order=True)
    want = basis_rows @ control
    assert got.shape == want.shape and got.flags.c_contiguous
    bound = (ns.size + 2) * np.finfo(float).eps * (basis_rows @ np.abs(control))
    assert np.all(np.abs(got - want) <= bound)
    if count > 1:  # simple end nodes: both give the end control points
        assert _same_bits(got[:2], want[:2]) and _same_bits(got[:2], control[[0, -1]])


@functools.cache
def _curve_case(case, count):
    """Node set, weights, (n + 1, 3) controls and count parameters (both ends
    first from 2 on), the rows checked (the first two, the last and a sample)
    and the mpmath points there."""
    ns, w = _kernel_cases()[case]
    rng = np.random.default_rng([case, count])
    control = rng.standard_normal((ns.size, 3))
    ts = rng.uniform(*ns.domain, count)
    if count > 1:
        ts[:2] = ns.domain
    rows = np.unique(np.r_[:min(count, 2), count - 1, rng.choice(count, min(count, 128), False)])
    return ns, w, control, ts, rows, mp_curve_points(ns, w, control, ts[rows])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("count", [1, 2, 4099, 20001])
@pytest.mark.parametrize("case", range(4), ids=["circle", "helix", "raw-helix", "repeated"])
def test_curve_points_match_mpmath(monkeypatch, case, count, dim):
    # the whole grid in the kernel's own blocks, then the checked rows alone
    # in blocks of a few values: many blocks, a short last one and
    # one-column blocks; the last bits depend on the block through BLAS's
    # choice of kernel, so the points are held to a bound, not to bits
    ns, w, control, ts, rows, want = _curve_case(case, count)
    curve = GTBezierCurve(ns, w, control[:, :dim])
    got = curve_points(curve, ts)
    assert got.shape == (count, dim) and got.flags.c_contiguous
    checked = [got[rows]]
    for values in (1, 8, 40, 300):
        monkeypatch.setattr(basis, "_BLOCK_VALUES", values)
        checked.append(curve_points(curve, ts[rows]))
    simple_ends = ns.nodes[1] > ns.nodes[0] and ns.nodes[-2] < ns.nodes[-1]
    for got in checked:
        assert np.max(np.abs(got - want[:, :dim])) <= CURVE_POINTS_ERROR
        if count > 1 and simple_ends:  # the point at a simple end node is its control point
            assert _same_bits(got[:2], control[[0, -1], :dim])

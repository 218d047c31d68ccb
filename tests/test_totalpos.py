"""Tests for collocation matrices, the power reduction (against the oracles'
power matrix), generalized Vandermonde matrices, and the total-positivity
checks."""

import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from gtbezier import (
    NodeSet,
    NtpSuiteReport,
    is_totally_positive,
    rational_collocation_matrix,
    validate_params,
    verify_ntp_suite,
)
from gtbezier import datasets, totalpos
from gtbezier.basis import bernstein_equivalent_nodeset
from gtbezier.totalpos import (BOUNDARY_CASES, DEFAULT_REL_TOL, EXHAUSTIVE_LIMIT, TpReport,
                               _index_sets, _initial_minors, _laplace, _tp_reports)
from bad_inputs import BAD_COUNTS
from oracles import (GenVandermondeSpec, det_stack, draw_params, generalized_vandermonde,
                     mp_det, mp_initial_minors, power_matrix, raw_log_basis, reference_draws)


def _random_node_set(rng, max_n=5):
    while True:
        n = int(rng.integers(1, max_n + 1))
        nodes = np.sort(rng.uniform(0.0, 3.0, n + 1))
        if nodes[0] < nodes[-1] and np.all(np.diff(nodes) > 1e-3):
            break
    return NodeSet(nodes, rng.uniform(0.2, 2.0, n + 1), rng.uniform(0.3, 2.0))


def _interior_params(rng, ns, count=None):
    a0, an = ns.domain
    count = ns.size if count is None else count
    margin = 1e-3 * (an - a0)
    while True:
        p = np.sort(rng.uniform(a0 + margin, an - margin, count))
        if np.all(np.diff(p) > 0):
            return p


def _raw_collocation_matrix(ns, params):
    """Collocation matrix of the raw basis, entry (i, j) = beta_j(t_i)."""
    return np.exp(raw_log_basis(ns, validate_params(ns, params)))


def _all_minors(m):
    """Test oracle: determinants and row-norm scales of every minor of a
    square matrix, by itertools enumeration and np.linalg.det."""
    dets, scales = [], []
    for k in range(1, m.shape[0] + 1):
        sets = np.array(list(combinations(range(m.shape[0]), k)))
        subs = m[sets[:, None, :, None], sets[None, :, None, :]].reshape(-1, k, k)
        dets.append(np.linalg.det(subs))
        scales.append(np.prod(np.linalg.norm(subs, axis=2), axis=1))
    return np.concatenate(dets), np.concatenate(scales)


def test_collocation_hand_values():
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(
        _raw_collocation_matrix(ns, [1 / 3, 2 / 3]),
        [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
        atol=1e-15,
    )


def test_collocation_endpoint_rows():
    ns = NodeSet([0, 1])
    np.testing.assert_array_equal(_raw_collocation_matrix(ns, [0.0, 1.0]), np.eye(2))


def test_collocation_rejects_bad_params():
    ns = NodeSet([0, 1])
    for build in (validate_params, lambda ns, p: rational_collocation_matrix(ns, None, p)):
        with pytest.raises(ValueError, match="increasing"):
            build(ns, [0.5, 0.2])
        with pytest.raises(ValueError, match="domain"):
            build(ns, [0.5, 1.2])
        with pytest.raises(ValueError, match="empty"):
            build(ns, [])
        with pytest.raises(ValueError, match="finite"):
            build(ns, [0.5, np.nan])
    p = validate_params(ns, [0.0, 1.0])
    assert not p.flags.writeable


def test_collocation_chebyshev_minors_positive():
    ns = datasets.circle_node_set()
    a0, an = ns.domain
    k = np.arange(5)
    cheb = np.sort(0.5 * (a0 + an) + 0.5 * (an - a0) * np.cos((2 * k + 1) * np.pi / 10))
    report = is_totally_positive(_raw_collocation_matrix(ns, cheb))
    assert report.is_tp
    assert report.witness[2] > 0


def test_rational_collocation_unit_weights():
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(
        rational_collocation_matrix(ns, [1, 1], [1 / 3, 2 / 3]),
        [[2 / 3, 1 / 3], [1 / 3, 2 / 3]],
        atol=1e-15,
    )


def test_rational_collocation_weighted_row():
    # weights [2, 1] at t = 1/2: (2*0.5, 1*0.5) normalized
    ns = NodeSet([0, 1])
    np.testing.assert_allclose(
        rational_collocation_matrix(ns, [2, 1], [0.5]),
        [[2 / 3, 1 / 3]],
        atol=1e-15,
    )


def test_rational_collocation_row_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ns = _random_node_set(rng)
        w = rng.uniform(0.2, 3.0, ns.size)
        mat = rational_collocation_matrix(ns, w, _interior_params(rng, ns, 7))
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-12


def test_power_reduction_tp_equivalent_to_collocation():
    # row/column scalings connect the two matrices, so exhaustive verdicts
    # must agree on random instances
    rng = np.random.default_rng(17)
    for _ in range(50):
        ns = _random_node_set(rng)
        params = _interior_params(rng, ns)
        b = _raw_collocation_matrix(ns, params)
        a = power_matrix(ns, params)
        assert is_totally_positive(b).is_tp == is_totally_positive(a).is_tp


def test_rational_basis_is_scaled_power_matrix():
    # the paper's scaling relation: normalizing the rows of the power matrix
    # times diag(c * w) gives the rational collocation matrix
    rng = np.random.default_rng(23)
    for _ in range(50):
        ns = _random_node_set(rng)
        w = rng.uniform(0.2, 3.0, ns.size)
        params = _interior_params(rng, ns)
        scaled = power_matrix(ns, params) * (ns.coefficients * w)
        np.testing.assert_allclose(rational_collocation_matrix(ns, w, params),
                                   scaled / scaled.sum(axis=1, keepdims=True), rtol=1e-13, atol=0)


def test_generalized_vandermonde_classical():
    w2 = generalized_vandermonde(GenVandermondeSpec([1.0, 2.0], [0.0, 1.0], [1.0]))
    np.testing.assert_array_equal(w2, [[1.0, 1.0], [1.0, 2.0]])
    assert np.linalg.det(w2) == pytest.approx(1.0)
    w3 = generalized_vandermonde(GenVandermondeSpec([1.0, 2.0, 3.0], [0.0, 1.0, 2.0]))
    # product formula: (2-1)(3-1)(3-2) = 2
    assert np.linalg.det(w3) == pytest.approx(2.0)


def test_generalized_vandermonde_random_positive():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        t = np.sort(rng.uniform(0.1, 3.0, n + 1))
        alpha = np.sort(rng.uniform(-2.0, 4.0, n + 1))
        if np.any(np.diff(t) < 0.05) or np.any(np.diff(alpha) < 0.05):
            continue
        det = np.linalg.det(generalized_vandermonde(GenVandermondeSpec(t, alpha)))
        assert det > 0


def test_generalized_vandermonde_mixed_signs():
    # a -1 sign twists the column above the diagonal and permits equal
    # neighboring abscissas; the determinant stays positive
    spec = GenVandermondeSpec([1.0, 1.0, 2.0], [0.0, 0.7, 2.0], [-1.0, 1.0])
    w = generalized_vandermonde(spec)
    assert w[0, 1] == -1.0  # sign applied above the diagonal only
    assert w[1, 1] == 1.0
    assert np.linalg.det(w) > 0
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        signs = rng.choice([-1.0, 1.0], size=n)
        t = [float(rng.uniform(0.1, 0.5))]
        for s in signs:
            step = 0.0 if (s == -1.0 and rng.random() < 0.5) else float(rng.uniform(0.05, 0.6))
            t.append(t[-1] + step)
        alpha = np.cumsum(rng.uniform(0.05, 0.8, n + 1))
        det = np.linalg.det(generalized_vandermonde(GenVandermondeSpec(t, alpha, signs)))
        assert det > 0


def test_vandermonde_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        GenVandermondeSpec([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="alpha"):
        GenVandermondeSpec([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="sign chain"):
        GenVandermondeSpec([1.0, 1.0], [0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="signs"):
        GenVandermondeSpec([1.0, 2.0], [0.0, 1.0], [2.0])


def _cofactor_det(m):
    m = np.asarray(m, dtype=float)
    if m.shape[0] == 1:
        return m[0, 0]
    total = 0.0
    for j in range(m.shape[1]):
        sub = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * _cofactor_det(sub)
    return total


def test_witness_det_matches_cofactor_oracle():
    # random matrices are far from TP, so the witness is a negative minor of
    # any order; its determinant must be the minor its indices name, also
    # where rows above one are scaled and the determinant mapped back. Every
    # order is a witness on entries in [-1, 1], which are judged unscaled
    normal, bounded = np.random.default_rng(31), np.random.default_rng(31)
    orders = set()
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            for m in (normal.normal(size=(n, n)), bounded.uniform(-1.0, 1.0, (n, n))):
                rows, cols, det = is_totally_positive(m).witness
                expected = _cofactor_det(m[np.ix_(rows, cols)])
                assert det == pytest.approx(expected, rel=1e-10)
            orders.add(len(rows))  # the bounded matrix's
    assert orders == {1, 2, 3, 4, 5, 6}


def test_is_tp_identity_and_antidiagonal():
    rep = is_totally_positive(np.eye(2))
    assert rep.is_tp
    assert rep.witness[2] == 0.0
    rep = is_totally_positive([[0.0, 1.0], [1.0, 0.0]])
    assert not rep.is_tp
    assert rep.witness[2] == pytest.approx(-1.0)


def test_is_tp_selects_enumeration_by_size(monkeypatch):
    # up to EXHAUSTIVE_LIMIT rows and columns every minor is judged, each
    # order from 2 to min(r, c) expanded over the one below; above it, in
    # either dimension, the expansion reaches no order
    assert EXHAUSTIVE_LIMIT == 8
    reached, laplace = [], totalpos._laplace
    monkeypatch.setattr(totalpos, "_laplace",
                        lambda stack, minors, k: reached.append(k) or laplace(stack, minors, k))
    for shape, top in (((8, 8), 8), ((2, 8), 2), ((9, 9), 1), ((2, 9), 1), ((9, 2), 1)):
        reached.clear()
        assert is_totally_positive(np.ones(shape)).is_tp
        assert reached == list(range(2, top + 1))
    # the helix collocation matrix is 31 x 31; the verdict never refuses a size
    prob = datasets.helix_problem()
    rep = is_totally_positive(
        rational_collocation_matrix(prob.nodeset, prob.weights, prob.params))
    assert rep.is_tp and not reached


def _laplace_orders(stack):
    """Every order's minors of a (T, r, c) stack from _laplace, order 1 first."""
    orders = [stack]
    for k in range(2, min(stack.shape[1:]) + 1):
        orders.append(_laplace(stack, orders[-1], k))
    return orders


def _gathered(stack, minors, k):
    """_laplace's order-k minors from det_stack on gathered copies."""
    rset, cset = _index_sets(stack.shape[1], k), _index_sets(stack.shape[2], k)
    return det_stack(stack[:, rset[:, None, :, None], cset[None, :, None, :]])


def test_laplace_minors_match_lapack_and_mpmath(monkeypatch):
    # orders 2 and 3 of the expansion are det_stack's closed forms bit for
    # bit; each sampled minor of orders 4 to 8 is within 4 eps of its scale
    # (the product of its row norms) of 60-digit mpmath, about 1 eps measured
    # against a first-order bound of 800 eps at order 8; verdicts and witness
    # positions equal those of _tp_reports on det_stack's gathered minors
    # (LAPACK above order 3) on suites, random, zero-laden and row-scaled
    # stacks, each with its rows above one scaled as is_totally_positive
    # scales them; and the terms' left-to-right sum keeps an exact -0.0
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(32)
    circle = datasets.circle_problem()
    stacks = [_suite_trials(circle.nodeset, circle.weights, 3, 400)]
    stacks += [_suite_trials(NodeSet(np.arange(n) / (n - 1), None, n - 1), None, 3, 40)
               for n in (3, 6, 8)]
    stacks += [rng.uniform(-0.1, 1.0, (30, r, c)) for r, c in ((6, 8), (8, 5), (3, 7), (8, 8))]
    stacks += [rng.standard_normal((20, 7, 7)), rng.standard_normal((20, 8, 8))]
    zeros = rng.uniform(0.0, 1.0, (40, 8, 8))
    zeros[rng.uniform(size=zeros.shape) < 0.3] = 0.0
    stacks.append(zeros)
    stacks += [s * 2.0 ** rng.uniform(0.0, 600.0, s.shape[:2])[:, :, None]
               for s in (stacks[4], stacks[8])]
    checked = 0
    for stack in stacks:
        scaled = _row_scaled(stack)[0]
        orders = _laplace_orders(scaled)
        r, c = stack.shape[1:]
        for k, minors in enumerate(orders[1:3], 2):
            assert _bits(minors) == _bits(_gathered(scaled, None, k))
        for k, minors in enumerate(orders[3:], 4):
            rset, cset = _index_sets(r, k), _index_sets(c, k)
            for q, i, j in zip(*(rng.integers(n, size=8) for n in minors.shape)):
                sub = scaled[q][np.ix_(rset[i], cset[j])]
                scale = np.prod(np.sqrt(np.sum(sub * sub, axis=1)))
                err = abs(mpmath.mpf(float(minors[q, i, j])) - mp_det(sub, 60))
                assert err <= 4 * eps * scale, (stack.shape, k, float(err / (eps * scale)))
                checked += 1
        reports = _tp_reports(scaled)
        with monkeypatch.context() as patch:
            patch.setattr(totalpos, "_laplace", _gathered)
            reference = _tp_reports(scaled)
        assert [(rep.is_tp, rep.witness[:2]) for rep in reports] == \
               [(rep.is_tp, rep.witness[:2]) for rep in reference]
    assert checked == 8 * sum(max(min(s.shape[1:]) - 3, 0) for s in stacks)
    for first in ([-1.0, 0.0], [-1.0, 1.0, -1.0, 1.0]):
        m = np.zeros((len(first),) * 2)
        m[0] = first
        assert _bits(_laplace_orders(m[None])[-1]) == _bits(-0.0)
    assert _bits(_gathered(np.array([[[-1.0, 0.0], [0.0, 0.0]]]), None, 2)) == _bits(-0.0)


def test_is_tp_large_entries_do_not_overflow():
    # raw basis entries reach 3.4e114, so unscaled minors overflow to inf;
    # positive row scalings keep every minor's sign, so the verdict must
    # match that of the row-normalized matrix
    mpmath = pytest.importorskip("mpmath")
    ns = NodeSet(np.arange(9.0), np.ones(9), 8.0)
    m = np.exp(raw_log_basis(ns, np.linspace(0.3, 7.7, 9)))
    assert m.max() > 1e114
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = is_totally_positive(m)
        normalized = is_totally_positive(m / m.max(axis=1, keepdims=True))
    assert rep.is_tp and normalized.is_tp
    rows, cols, det = rep.witness
    with mpmath.workdps(50):
        exact = mpmath.det(mpmath.matrix(m[np.ix_(rows, cols)].tolist()))
        assert det == pytest.approx(float(exact), rel=1e-9)


def test_is_tp_leaves_a_read_only_input_as_it_was():
    # nothing may write to the matrix it is given: read-only float64 inputs,
    # by initial minors (a left-endpoint helix trial, whose unit first row is
    # dropped) and by every minor, unscaled and with a row scaled, keep their
    # bytes
    helix = _helix_trials(1, 2)[1]
    small = np.random.default_rng(3).uniform(0.0, 1.0, (6, 6))
    for m, tp in ((helix, True), (small, False)):
        for row in (None, 2):
            m = m.copy()
            if row is not None:
                m[row] *= 1e3
            m.setflags(write=False)
            before = m.tobytes()
            assert is_totally_positive(m).is_tp == tp
            assert m.tobytes() == before


def test_is_tp_input_validation():
    with pytest.raises(ValueError, match="finite"):
        is_totally_positive([[np.inf, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("m, witness",
                         [([[np.finfo(float).max]], ((0,), (0,), float(np.finfo(float).max))),
                          (np.full((2, 2), np.finfo(float).max), ((0, 1), (0, 1), 0.0))],
                         ids=["1x1", "2x2"])
def test_is_tp_witness_where_every_margin_overflows(m, witness):
    # every margin is inf in the original scale; the witness is the minor of
    # least margin of the row-scaled matrix, where none is: the 1x1's entry,
    # whose determinant maps back to max, and the 2x2's exact 0 determinant
    rep = is_totally_positive(m)
    assert rep.is_tp
    assert rep.witness == witness


def test_example_collocation_is_tp():
    prob = datasets.circle_problem()
    rng = np.random.default_rng(37)
    params = _interior_params(rng, prob.nodeset)
    rep = is_totally_positive(rational_collocation_matrix(prob.nodeset, prob.weights, params))
    assert rep.is_tp


def test_contiguous_stp_implies_exhaustive_tp(monkeypatch):
    # above EXHAUSTIVE_LIMIT only initial minors are checked; a verdict with
    # no tolerance whose witness is positive (every initial minor positive)
    # must hold up against all minors, enumerated by the oracle and accepted
    # as in the exhaustive verdict
    rng = np.random.default_rng(41)
    for n, count in ((9, 48619), (9, 48619), (10, 184755)):
        while True:
            nodes = np.sort(rng.uniform(0.0, 3.0, n))
            if np.all(np.diff(nodes) > 0.05):
                break
        ns = NodeSet(nodes, rng.uniform(0.2, 2.0, n), rng.uniform(0.3, 2.0))
        mat = _raw_collocation_matrix(ns, _interior_params(rng, ns))
        with monkeypatch.context() as patch:
            patch.setattr(totalpos, "DEFAULT_REL_TOL", 0.0)
            report = is_totally_positive(mat)
        assert report.is_tp and report.witness[2] > 0
        dets, scales = _all_minors(mat)
        assert dets.size == count
        assert np.all(dets >= -1e-9 * scales)
        # negative control: a column swap leaves a negative initial minor
        swapped = mat[:, [1, 0] + list(range(2, n))]
        assert not is_totally_positive(swapped).is_tp


def test_positive_scaling_preserves_tp():
    rng = np.random.default_rng(43)
    for _ in range(30):
        ns = _random_node_set(rng)
        mat = rational_collocation_matrix(ns, rng.uniform(0.2, 3.0, ns.size),
                                          _interior_params(rng, ns))
        report = is_totally_positive(mat)
        assert report.is_tp
        scaled = np.diag(rng.uniform(0.1, 10.0, mat.shape[0])) @ mat
        scaled = scaled @ np.diag(rng.uniform(0.1, 10.0, mat.shape[1]))
        assert is_totally_positive(scaled).is_tp


def test_ntp_suite_bernstein_basis():
    ns = bernstein_equivalent_nodeset(3)
    report = verify_ntp_suite(ns, None, trials=100, seed=1)
    assert report.passed
    assert report.trials == 100


def test_ntp_suite_example_configuration():
    prob = datasets.circle_problem()
    report = verify_ntp_suite(prob.nodeset, prob.weights, trials=100, seed=2)
    assert report.passed


def test_ntp_suite_two_nodes_identity_case():
    ns = NodeSet([0, 1])
    # the both-endpoints case on two nodes is exactly the identity matrix
    np.testing.assert_array_equal(rational_collocation_matrix(ns, [1, 1], [0.0, 1.0]), np.eye(2))
    assert verify_ntp_suite(ns, None, trials=8, seed=3).passed


def test_ntp_suite_deterministic():
    prob = datasets.circle_problem()
    a = verify_ntp_suite(prob.nodeset, prob.weights, trials=40, seed=9)
    b = verify_ntp_suite(prob.nodeset, prob.weights, trials=40, seed=9)
    assert a == b
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_ntp_suite(prob.nodeset, prob.weights, trials=0)


@pytest.mark.parametrize("trials", [*BAD_COUNTS, 3.0, "4", totalpos.MAX_TRIALS + 1])
def test_ntp_suite_rejects_non_integer_trials(monkeypatch, trials):
    # the count rule, with the cap that keeps every trial index one 32-bit
    # entropy word: a bad count is rejected before any trial is drawn
    prob = datasets.circle_problem()

    def draw(*args):
        raise AssertionError("parameters drawn")

    monkeypatch.setattr(totalpos, "suite_params", draw)
    with pytest.raises((TypeError, ValueError), match="trials must be"):
        verify_ntp_suite(prob.nodeset, prob.weights, trials=trials)
    monkeypatch.undo()
    assert verify_ntp_suite(prob.nodeset, prob.weights, trials=np.int64(3)).trials == 3


@pytest.mark.parametrize("seed, error, message", [
    (seed, ValueError, "seed must be non-negative") if seed == -1
    else (seed, TypeError, "seed must be an integer") for seed in BAD_COUNTS
])
def test_ntp_suite_rejects_bad_seed(seed, error, message):
    # seed is split into 32-bit words, which never ends on a negative int
    prob = datasets.circle_problem()
    with pytest.raises(error, match=message):
        verify_ntp_suite(prob.nodeset, prob.weights, trials=3, seed=seed)
    assert (verify_ntp_suite(prob.nodeset, prob.weights, trials=3, seed=np.int64(3))
            == verify_ntp_suite(prob.nodeset, prob.weights, trials=3, seed=3))


def test_ntp_suite_reports_pinned():
    # pinned suite reports, witnesses included: the 5-node circle is judged
    # on every minor, the 31-node helix on initial minors without the unit
    # rows of its boundary trials. Each helix witness is checked against
    # 120-digit mpmath: that of the 8-trial suite, in its right-endpoint
    # trial 2, is 3.47e-335, which underflows to 0.0 in doubles
    circle = datasets.circle_problem()
    report = verify_ntp_suite(circle.nodeset, circle.weights, trials=400, seed=20240809)
    assert report == NtpSuiteReport(
        trials=400, worst_witness=((0,), (1,), 0.0), worst_case="left", failed_trials=())
    assert (report.failures, report.worst_minor) == (0, 0.0)
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    assert verify_ntp_suite(ns, w, trials=8, seed=3) == NtpSuiteReport(
        trials=8, worst_witness=(tuple(range(7)), tuple(range(24, 31)), 0.0), worst_case="right",
        failed_trials=())
    mpmath = pytest.importorskip("mpmath")
    trials = _helix_trials(3, 3)
    exact = mp_det(trials[2][:7, 24:], 120)
    assert abs(exact / mpmath.mpf("3.4697e-335") - 1) < 1e-4 and float(exact) == 0.0
    # a one-trial suite is interior only, so its witness is a nonzero minor
    interior = verify_ntp_suite(ns, w, trials=1, seed=3)
    assert interior.worst_case == "interior"
    assert interior.worst_witness[:2] == ((0, 1, 2, 3, 4, 5), (25, 26, 27, 28, 29, 30))
    assert interior.worst_minor == pytest.approx(6.678522287174328e-208, rel=1e-9)
    assert interior.worst_minor == pytest.approx(float(mp_det(trials[0][:6, 25:], 120)), rel=1e-9)


def _reference_suite(ns, w, trials, seed):
    """The NTP suite one trial at a time: draw the trial's parameters, build
    its collocation matrix, judge it alone, and fold the reports in order."""
    cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in range(trials)]
    draws = reference_draws(seed, range(trials), cases, *ns.domain, ns.size)
    reports = [is_totally_positive(rational_collocation_matrix(ns, w, params))
               for params in draws]
    failed = tuple((trial, case) for trial, case, report in zip(range(trials), cases, reports)
                   if not report.is_tp)
    # min keeps the first of equal determinants
    witness, case = min(zip((report.witness for report in reports), cases),
                        key=lambda pair: pair[0][2])
    return NtpSuiteReport(trials, witness, case, failed)


def _suite_stacks(monkeypatch, ns, w, trials, seed=0):
    """Shapes of the matrix stacks verify_ntp_suite judges, in call order."""
    shapes, judge = [], totalpos._tp_reports
    monkeypatch.setattr(totalpos, "_tp_reports",
                        lambda stack: shapes.append(stack.shape) or judge(stack))
    verify_ntp_suite(ns, w, trials, seed)
    monkeypatch.undo()
    return shapes


def test_ntp_suite_equals_trial_by_trial_reference(monkeypatch):
    circle = datasets.circle_problem()
    ns, w = circle.nodeset, circle.weights
    chunk = _suite_stacks(monkeypatch, ns, w, 400)[0][0]
    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials, seed in (((ns, w), 400, 20240809), ((ns, w), chunk + 1, 7),
                                  (helix, 5, 3), (helix, 8, 3),
                                  ((bernstein_equivalent_nodeset(3), None), 100, 1),
                                  ((NodeSet([0, 1]), None), 8, 3),
                                  ((NodeSet(np.arange(12.0)), None), 40, 5)):
        assert verify_ntp_suite(ns, w, trials, seed) == _reference_suite(ns, w, trials, seed)


def test_tp_reports_judge_each_matrix_of_a_stack_alone():
    # a same-shape stack of TP and non-TP matrices, one with entries above
    # 1e40, judged as given: no witness may leak from one matrix to another
    ns, w = datasets.circle_node_set(), np.array(datasets.CIRCLE_WEIGHTS)
    a0, an = ns.domain
    rng = np.random.default_rng(47)
    mats = [rational_collocation_matrix(ns, w, draw_params(rng, case, a0, an, 1e-6, 5))
            for case in BOUNDARY_CASES]
    mats += [m[:, [1, 0, 2, 3, 4]] for m in mats]
    raw = _raw_collocation_matrix(NodeSet(np.arange(5.0), np.ones(5), 8.0),
                                  np.linspace(0.3, 3.7, 5))
    assert raw.max() > 1e40
    mats += [raw, np.eye(5), np.eye(5)[::-1]]
    stack = np.array(mats)
    reports = _tp_reports(stack)
    assert reports == [_tp_reports(m[None])[0] for m in stack]
    assert _tp_reports(stack[::-1]) == reports[::-1]
    verdicts = []
    for m, report in zip(stack, reports):
        dets, scales = _all_minors(m)
        assert report.is_tp == bool(np.all(dets >= -DEFAULT_REL_TOL * scales))
        verdicts.append(report.is_tp)
    assert verdicts == [True] * 4 + [False] * 4 + [True, True, False]


def _row_scaled(m):
    """m with each row whose largest entry exceeds one scaled down by a power
    of two, as is_totally_positive scales it, and the shifts."""
    row_max = np.max(np.abs(m), axis=-1)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    return np.ldexp(m, -shifts[..., None]), shifts


def _suite_trials(ns, w, seed, trials):
    """A suite's first trials at seed, rebuilt from their draws."""
    cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in range(trials)]
    draws = reference_draws(seed, range(trials), cases, *ns.domain, ns.size)
    return np.array([rational_collocation_matrix(ns, w, params) for params in draws])


def _helix_trials(seed, trials):
    """The helix suite's first trials at seed, rebuilt from their draws."""
    return _suite_trials(datasets.helix_node_set(), datasets.helix_weights(), seed, trials)


def _reduced(m, case):
    """A helix trial of the given case without the unit rows of its endpoints."""
    return m[case in ("left", "both"):len(m) - (case in ("right", "both"))]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _norm(line):
    """The Euclidean norm, its squares added first to last."""
    return np.sqrt(np.cumsum(np.square(line))[-1])


def _initial_reference(m, tol):
    """Reference for the verdict of one matrix above EXHAUSTIVE_LIMIT, one
    minor at a time: the exact reductions by their definition (a first row
    c * e_0^T, c > 0, whose column 0 has another nonzero entry is dropped,
    and the same of the last row and column), then each initial minor of
    what is left, A's on rows d..d+k and columns 0..k and A^T's on rows 0..k
    and columns d..d+k, gathered into a copy. Its scale is the product, row
    after row, of each row's norm over its columns; its determinant and
    pivots come from _initial_minors of the reduced matrix alone; the zero
    rule is applied one pivot at a time, and the witness is the first of
    least margin in (d, k, A before A^T) order, a NaN margin below every
    number, at its original rows. Rows above one are scaled first, as
    is_totally_positive scales them; the witness is chosen on the scaled
    matrix and only its determinant is mapped back."""
    r, c = m.shape
    m, shifts = _row_scaled(m)

    def unit(i, j):
        return int(m[i, j] > 0 and not np.delete(m[i], j).any()
                   and np.delete(m[:, j], i).any())

    rows = list(range(r))[unit(0, 0):r - unit(r - 1, c - 1)]
    reduced = m[rows]
    dets, _, pivots, _ = (x[..., 0] for x in _initial_minors(reduced[None]))
    is_tp, best = True, None
    for d in range(max(len(rows), c)):
        for k in range(min(len(rows), c)):
            for half in (0, 1):
                rs, cs = (range(d, d + k + 1), range(k + 1)) if half == 0 else \
                         (range(k + 1), range(d, d + k + 1))
                if rs[-1] >= len(rows) or cs[-1] >= c:
                    continue
                sub = reduced[np.ix_(rs, cs)]
                scale = np.cumprod([_norm(row) for row in sub])[-1]
                det, pivot = dets[d, k, half], pivots[:, :, half]
                margin = det + tol * scale
                wrong = d > 0 and pivot[d - 1, k] == 0.0 and pivot[d, k] != 0.0
                if (pivot[d, :k] == 0.0).any():
                    line = reduced[d + k, :k + 1] if half == 0 else reduced[:k + 1, d + k]
                    wrong |= pivot[d, k] < -tol * _norm(line)
                is_tp &= bool(margin >= 0.0) and not wrong
                key = -np.inf if np.isnan(margin) else margin
                if best is None or key < best[0]:
                    best = (key, tuple(rows[q] for q in rs), tuple(cs), det)
    _, rs, cs, det = best
    with np.errstate(over="ignore"):
        return TpReport(is_tp, (rs, cs, float(np.ldexp(det, int(shifts[list(rs)].sum())))))


def _initial_test_stacks():
    """Stacks above EXHAUSTIVE_LIMIT: random, TP (generalized Vandermonde)
    and row-scaled ones of every size to 31, rectangular ones with a side at
    or below the limit, and ones whose matrices have a unit first or last
    row (a positive multiple of e_0^T or e_(c-1)^T), both, rows zero over a
    run of columns, or random rows. The first matrix of each of the first
    nine is TP, and so is the first of its row-scaled copy."""
    rng = np.random.default_rng(2026)
    stacks = []
    for n in (*range(9, 31, 3), 31):
        t = np.sort(rng.uniform(0.5, 2.0, n))
        tp = generalized_vandermonde(GenVandermondeSpec(t, np.arange(n) * rng.uniform(0.2, 1.0)))
        noise = rng.uniform(-0.1, 1.0, (2, n, n)) * np.exp(rng.uniform(-5.0, 5.0, (2, n, n)))
        stacks.append(np.concatenate([tp[None], noise]))
    stacks += [rng.uniform(-0.1, 1.0, (3, r, c))
               for r, c in ((2, 9), (9, 2), (1, 20), (5, 12), (12, 5))]
    for r, c in ((9, 9), (12, 12), (10, 13), (13, 10)):
        mats = rng.uniform(0.0, 1.0, (5, r, c))
        mats[0, 0], mats[1, -1] = np.eye(c)[0], 3.0 * np.eye(c)[-1]
        mats[2, 0], mats[2, -1] = 0.5 * np.eye(c)[0], np.eye(c)[-1]
        for q in rng.integers(r, size=3):
            lo, hi = np.sort(rng.integers(c + 1, size=2))
            mats[3, q, lo:hi] = 0.0
        stacks.append(mats)
    stacks += [s * 2.0 ** rng.uniform(0.0, 600.0, s.shape[:2])[:, :, None]
               for s in stacks[8:9] + stacks[-9:]]
    return stacks


# _initial_test_stacks' random, TP and rectangular stacks and their row-scaled
# copies; the rest have unit rows or zero runs
_PLAIN = [*range(14), *range(18, 24)]


def _equal_the_reference(stack, tol):
    """The stacked verdict on the stack with its rows above one scaled, and
    is_totally_positive on each matrix as given where that differs, equal
    the one-minor reference; the stacked reports."""
    scaled = _row_scaled(stack)[0]
    reports = _tp_reports(scaled)
    assert reports == [_initial_reference(m, tol) for m in scaled]
    if (scaled != stack).any():
        assert [is_totally_positive(m) for m in stack] == [_initial_reference(m, tol) for m in stack]
    return reports


@pytest.mark.parametrize("tol", [0.0, DEFAULT_REL_TOL])
def test_window_views_equal_gathered_windows(monkeypatch, tol):
    # the stacked verdict, which takes every initial minor in place from two
    # eliminations of the whole stack, has the reductions, masks, row-norm
    # scales, zero rule and witness choice of a reference that gathers each
    # initial minor's window into a copy, and is_totally_positive its row
    # scaling too: reports are ==, matrix by matrix, on random, TP
    # (Vandermonde) and rectangular matrices, each with its rows as given
    # and scaled by up to 2**600
    monkeypatch.setattr(totalpos, "DEFAULT_REL_TOL", tol)
    stacks = _initial_test_stacks()
    verdicts = set()
    for q in _PLAIN:
        verdicts.update(rep.is_tp for rep in _equal_the_reference(stacks[q], tol))
    assert verdicts == {True, False}


def test_zero_row_windows_equal_the_lapack_routing(monkeypatch):
    # on matrices with a unit first or last row, both, rows zero over a run
    # of columns, or random rows, each with its rows as given and scaled by
    # up to 2**600, and a stack in which only one matrix has a row above 1:
    # at either tolerance the reports, stacked on the row-scaled stack and
    # one matrix at a time as given, are == the one-minor reference, and a
    # dropped first row is never a witness's. Each initial minor whose window
    # has a row zero across its columns is exactly 0 from the elimination,
    # as it is from det_stack (LAPACK above order 3) on the gathered window
    stacks = [s for q, s in enumerate(_initial_test_stacks()) if q not in _PLAIN]
    mixed = stacks[1].copy()
    mixed[4, 3] *= 3.0
    for tol in (0.0, DEFAULT_REL_TOL):
        monkeypatch.setattr(totalpos, "DEFAULT_REL_TOL", tol)
        for stack in stacks + [mixed]:
            _equal_the_reference(stack, tol)
    assert all(rep.witness[0][0] >= 1 for rep in _tp_reports(stacks[0][[0, 2]]))
    zero_windows = 0
    for stack in stacks + [mixed]:
        scaled = _row_scaled(stack)[0]
        dets = _initial_minors(scaled)[0]
        count, r, c = stack.shape
        for d, k, t in np.ndindex(max(r, c), min(r, c), count):
            for half, (rows, cols) in enumerate([(range(d, d + k + 1), range(k + 1)),
                                                 (range(k + 1), range(d, d + k + 1))]):
                if rows[-1] >= r or cols[-1] >= c:
                    continue
                window = scaled[t][np.ix_(rows, cols)]
                if (window == 0.0).all(axis=1).any():
                    zero_windows += 1
                    assert dets[d, k, half, t] == 0.0
                    assert det_stack(window[None])[0] == 0.0
    assert zero_windows > 0


def test_initial_minors_match_mpmath():
    # every initial minor of four helix suite trials at seed 1, one per
    # boundary case, without their unit rows, and of the 31-node Vandermonde
    # matrix of the reference test, row-scaled, against a Neville
    # elimination in 120-digit mpmath: each error is within (k + 1) ulps of
    # the minor's scale (the product of its row norms, about 0.3 ulps at
    # most), far below the tolerance. On orders 4 and up the errors'
    # geometric mean is below np.linalg.det's on the same minors (about a
    # third of it; their largest is not, at about 2e-17 of the scale for
    # either)
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    mats = [_reduced(m, case) for m, case in zip(_helix_trials(1, 4), BOUNDARY_CASES)]
    mats.append(_row_scaled(_initial_test_stacks()[8][0])[0])
    checked = expected = 0
    log_ratio = 0  # of the elimination's error to LAPACK's, summed over orders >= 4
    for m in mats:
        dets, scales, _, _ = _initial_minors(m[None])
        for half, x in enumerate((m, m.T)):
            for d, run in enumerate(mp_initial_minors(x)):
                for k, exact in enumerate(run):
                    err = abs(mpmath.mpf(float(dets[d, k, half, 0])) - exact)
                    assert err <= (k + 1) * eps * scales[d, k, half, 0], (half, d, k)
                    checked += 1
                    if k >= 3:
                        ref = abs(mpmath.mpf(float(np.linalg.det(x[d:d + k + 1, :k + 1]))) - exact)
                        log_ratio += mpmath.log(err) - mpmath.log(ref)
            expected += sum(min(len(x) - d, x.shape[1]) for d in range(len(x)))
    assert checked == expected
    assert log_ratio < 0
    # the suite judges the trial the mpmath check rebuilds
    helix = _helix_trials(1, 1)[0]
    assert verify_ntp_suite(datasets.helix_node_set(), datasets.helix_weights(), 1,
                            seed=1).worst_witness == is_totally_positive(helix).witness


@pytest.mark.parametrize("seed, trial, half, d, k, exact", [
    (2, 2, 1, 4, 23, 2.651e-118), (2, 3, 1, 5, 25, 2.324e-132), (3, 1, 1, 6, 24, 3.703e-166)])
def test_helix_minors_of_uncertain_sign_pass_by_the_tolerance(seed, trial, half, d, k, exact):
    # initial minors of helix trials carry no relative accuracy: on these
    # positive ones, on rows 0..k and columns d..d+k of the reduced trial,
    # the elimination and np.linalg.det have been off by 100% or more, the
    # sign included. The elimination's error stays within (k + 1) ulps of
    # the scale, so each is accepted by the tolerance, not certified
    mpmath = pytest.importorskip("mpmath")
    m = _reduced(_helix_trials(seed, trial + 1)[trial], BOUNDARY_CASES[trial % 4])
    x = (m, m.T)[half]
    reference = mp_initial_minors(x)[d][k]
    assert float(reference) == pytest.approx(exact, rel=1e-3)
    dets, scales, _, _ = _initial_minors(m[None])
    det, scale = dets[d, k, half, 0], scales[d, k, half, 0]
    assert abs(mpmath.mpf(float(det)) - reference) <= (k + 1) * np.finfo(float).eps * scale
    assert det + DEFAULT_REL_TOL * scale >= 0.0
    assert is_totally_positive(m).is_tp


def test_initial_verdicts_never_reach_det_stack(monkeypatch):
    # no verdict at any size reaches LAPACK, np.linalg.det made here to
    # raise: up to EXHAUSTIVE_LIMIT the circle suite, uniform suites of 3 to
    # 8 nodes, random and singular 8 x 8 matrices; above it helix trials of
    # every boundary case, the CI's 12-node configs with and without a
    # repeated node and its 64-node one, matrices with zero pivots and zero
    # rows, and one whose elimination overflows
    def refuse(*args, **kwargs):
        raise AssertionError("a minor reached np.linalg.det")

    monkeypatch.setattr(np.linalg, "det", refuse)
    circle = datasets.circle_problem()
    assert verify_ntp_suite(circle.nodeset, circle.weights, 40).passed
    for n in range(3, EXHAUSTIVE_LIMIT + 1):
        assert verify_ntp_suite(NodeSet(np.arange(n) / (n - 1), None, n - 1), None, 40).passed
    singular = np.random.default_rng(8).uniform(0.5, 1.5, (8, 8))
    singular[3] = singular[5]
    assert not is_totally_positive(np.random.default_rng(8).uniform(-1.0, 1.0, (8, 8))).is_tp
    assert not is_totally_positive(singular).is_tp
    assert [rep.is_tp for rep in _tp_reports(_helix_trials(7, 4))] == [True] * 4
    for nodes, scale, trials in ((np.arange(12.0), 1.0, 40),
                                 (np.r_[0:5, 4:11].astype(float), 1.0, 40),
                                 (np.arange(64) / 63, 63.0, 2)):
        assert verify_ntp_suite(NodeSet(nodes, None, scale), None, trials).passed
    zero_rows = np.random.default_rng(8).uniform(0.5, 1.5, (10, 10))
    zero_rows[[2, 7]] = 0.0
    assert not is_totally_positive(zero_rows).is_tp
    assert not is_totally_positive(np.eye(9)[::-1]).is_tp


def test_zero_rule_on_singular_and_structured_matrices():
    # Gasca & Pena's rule for zero pivots: 0/0 multipliers are 0, a nonzero
    # entry under a zero pivot fails, and a pivot after a zero one on its
    # diagonal must be >= -tolerance * its row's norm. The identity and a
    # matrix of ones are TP; the antidiagonal is not; I_6 + B, B = [[1, 0,
    # 0], [0, 1, 0], [0, -1, 1]], has every initial minor >= 0 and an entry
    # -1, so it fails by the rule alone and keeps a witness of margin >= 0
    assert is_totally_positive(np.eye(12)).is_tp
    assert is_totally_positive(np.ones((9, 9))).is_tp
    anti = is_totally_positive(np.eye(12)[::-1])
    assert not anti.is_tp
    block = np.eye(9)
    block[8, 7] = -1.0
    dets, scales, _, _ = _initial_minors(block[None])
    assert np.all(dets[:, :, 0][np.add.outer(np.arange(9), np.arange(9)) < 9] >= 0.0)
    assert np.all(dets[:, :, 1][np.add.outer(np.arange(9), np.arange(9)) < 9] >= 0.0)
    rep = is_totally_positive(block)
    assert not rep.is_tp and rep.witness[2] >= 0.0
    assert not is_totally_positive(block.T).is_tp
    # the same at the exhaustive size: every minor says the same
    assert not is_totally_positive(block[5:, 5:]).is_tp
    # a minor that ends on a zero pivot after nonzero ones is exactly 0: the
    # unit last row of a right-endpoint helix trial is zero in the columns of
    # the minors (d, k < n - 1) of A that end on it, and on a 9 x 9 matrix
    # whose rows 4 and 5 are equal the minors of A on rows d..5, d < 5
    right = _helix_trials(1, 3)[2]
    n = len(right)
    dets = _initial_minors(right[None])[0][:, :, 0, 0]
    assert all(dets[n - 1 - k, k] == 0.0 for k in range(n - 1))
    twin = np.random.default_rng(5).uniform(0.5, 1.5, (9, 9))
    twin[5] = twin[4]
    dets = _initial_minors(twin[None])[0][:, :, 0, 0]
    assert all(dets[d, k] == 0.0 for d in range(5) for k in range(5 - d, 9 - d))


def test_initial_minors_do_not_depend_on_the_stack():
    # a minor's bits are its own: helix stacks of 1, 4, 17 (a suite chunk)
    # and 68 trials are judged exactly as each trial alone, and every
    # determinant, scale, pivot and pivot norm of a stack entry has the bits
    # of its one-matrix stack
    trials = _helix_trials(5, 68)
    alone = [_tp_reports(m[None])[0] for m in trials]
    for count in (1, 4, 17, 68):
        assert _tp_reports(trials[:count]) == alone[:count]
    stacked = _initial_minors(trials[:4])
    for t, m in enumerate(trials[:4]):
        assert all(_bits(a[..., t]) == _bits(b[..., 0])
                   for a, b in zip(stacked, _initial_minors(m[None])))


def _unit_rows(rng, r, c):
    """A random positive r x c matrix whose first row is a positive multiple
    of e_0^T or whose last is one of e_(c-1)^T, or both."""
    m = rng.uniform(0.0, 1.0, (r, c))
    which = rng.integers(1, 4)
    if which & 1:
        m[0] = rng.uniform(0.5, 2.0) * np.eye(c)[0]
    if which & 2:
        m[-1] = rng.uniform(0.5, 2.0) * np.eye(c)[-1]
    return m


def _summed(m, j):
    """m with its columns j and j + 1 replaced by their sum."""
    return np.column_stack([m[:, :j], m[:, j] + m[:, j + 1], m[:, j + 2:]])


def test_reductions_equal_exhaustive_enumeration(monkeypatch):
    # both exact reductions keep the verdict of every minor, checked against
    # exhaustive enumeration on matrices of at most 8 rows judged by the
    # initial minors (EXHAUSTIVE_LIMIT made 0):
    # - unit rows: collocation matrices of boundary trials (TP) and random
    #   positive matrices with unit rows and their column-swapped copies;
    # - proportional adjacent columns: collocation matrices of node sets
    #   with a repeated node (TP), whose merged node set (_merged) gives the
    #   sum of the two columns, and random matrices with unit rows and a
    #   column that is a multiple of its neighbour (not TP), with the two
    #   columns summed
    rng = np.random.default_rng(61)
    pairs = []
    for _ in range(60):
        r = int(rng.integers(3, 9))
        m = _unit_rows(rng, r, r)
        j = int(rng.integers(r - 1))
        twin = m.copy()
        twin[:, j + 1] = rng.uniform(0.2, 5.0) * m[:, j]
        pairs += [(m, m), (m[:, ::-1], m[:, ::-1]), (twin, _summed(twin, j))]
    for _ in range(40):
        n = int(rng.integers(4, 9))
        nodes = np.sort(rng.uniform(0.0, 3.0, n))
        ns = NodeSet(nodes, rng.uniform(0.2, 2.0, n), rng.uniform(0.3, 2.0))
        w = rng.uniform(0.2, 3.0, n)
        params = draw_params(rng, BOUNDARY_CASES[int(rng.integers(1, 4))], *ns.domain, 1e-6, n)
        m = rational_collocation_matrix(ns, w, params)
        pairs += [(m, m), (m[:, [1, 0, *range(2, n)]],) * 2]
        j = int(rng.integers(1, n - 2))
        nodes[j + 1] = nodes[j]
        ns = NodeSet(nodes, ns.coefficients, ns.scale)
        m = rational_collocation_matrix(ns, w, params)
        merged, mw, firsts, factors = totalpos._merged(ns, w)
        reduced = rational_collocation_matrix(merged, mw, params)
        np.testing.assert_allclose(reduced, _summed(m, j), rtol=1e-12, atol=1e-300)
        assert firsts.tolist() == [q for q in range(n) if q != j + 1]
        np.testing.assert_allclose(reduced[:, j] * factors[j], m[:, j], rtol=1e-12)
        pairs.append((m, reduced))
    verdicts = []
    for m, reduced in pairs:
        expected = is_totally_positive(m).is_tp
        with monkeypatch.context() as patch:
            patch.setattr(totalpos, "EXHAUSTIVE_LIMIT", 0)
            assert is_totally_positive(reduced).is_tp == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 80 and verdicts.count(False) >= 80


def test_ntp_suite_stacks_stay_within_gather_limit(monkeypatch):
    # what a stack's verdict holds at once stays within the ceiling unless
    # one trial alone exceeds it, as 8 nodes (every minor) do: the values
    # one order of the Laplace expansion gathers (trials x minors x 2k
    # elements: each minor's first-row entries and minors of order k - 1),
    # 4 * n * n elements a trial of n nodes above it (the traced peak is
    # bounded in the test below)
    def held(trials, n):
        if n <= EXHAUSTIVE_LIMIT:
            return trials * max(comb(n, k) ** 2 * 2 * k for k in range(1, n + 1))
        return trials * 4 * n * n

    circle = datasets.circle_problem()
    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials, stacked in (((circle.nodeset, circle.weights), 200, 109),
                                     ((bernstein_equivalent_nodeset(7), None), 3, 1),
                                     (helix, 4, 4), (helix, 80, 17),
                                     ((NodeSet(np.arange(12.0)), None), 500, 113),
                                     ((NodeSet(np.linspace(0, 1, 64), None, 63), None), 20, 4)):
        shapes = _suite_stacks(monkeypatch, ns, w, trials)
        assert sum(t for t, _, _ in shapes) == trials
        assert all(shape[1:] == (ns.size, ns.size) for shape in shapes)
        assert all(held(t, ns.size) <= totalpos._GATHER_LIMIT or t == 1 for t, _, _ in shapes)
        if stacked == 1:
            assert {t for t, _, _ in shapes} == {1}
        else:
            assert shapes[0][0] == stacked
    # equal nodes are merged before the stack is built: n rows, one column a run
    ns = NodeSet(np.r_[0:5, 4:11].astype(float))
    assert {shape[1:] for shape in _suite_stacks(monkeypatch, ns, None, 40)} == {(12, 11)}


def test_ntp_suite_traced_peak_stays_near_the_ceiling():
    # above EXHAUSTIVE_LIMIT a suite's traced heap peak stays within four
    # doubles an element of the ceiling (about 3 measured on 31 and 64
    # nodes), a bound that chunks of n * n elements a trial exceed twofold
    import tracemalloc

    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials in ((helix, 40), ((NodeSet(np.linspace(0, 1, 64), None, 63), None), 8)):
        verify_ntp_suite(ns, w, trials, 1)
        tracemalloc.start()
        try:
            verify_ntp_suite(ns, w, trials, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * totalpos._GATHER_LIMIT, (ns.size, peak)


def test_verdict_sweep_over_helix_uniform_and_repeated_node_suites():
    # every trial of 8-trial helix suites at seeds 0-39 passes, and each of
    # those trials with its first two columns swapped is rejected; 8-trial
    # suites on 12 to 64 uniform nodes pass at seeds 0 and 1; and the
    # suite on the CI's node set with a repeated node passes, its witness
    # in the original columns, where its determinant is the mpmath one
    mpmath = pytest.importorskip("mpmath")
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    swap = [1, 0, *range(2, ns.size)]
    for seed in range(40):
        assert verify_ntp_suite(ns, w, 8, seed).passed
        reports = _tp_reports(_helix_trials(seed, 8)[:, :, swap])
        assert not any(rep.is_tp for rep in reports)
    for n in (12, 16, 24, 32, 40, 48, 64):
        uniform = NodeSet(np.linspace(0.0, 1.0, n), None, n - 1)
        assert all(verify_ntp_suite(uniform, None, 8, seed).passed for seed in (0, 1))
    repeated = NodeSet(np.r_[0:5, 4:11].astype(float))
    report = verify_ntp_suite(repeated, None, 40)
    assert report.passed
    rows, cols, det = report.worst_witness
    assert 5 not in cols  # the second of the equal nodes 4 and 5 is merged into the first
    cases = [BOUNDARY_CASES[trial % 4] for trial in range(40)]
    draws = reference_draws(0, range(40), cases, *repeated.domain, repeated.size)
    exact = [mp_det(rational_collocation_matrix(repeated, None, params)[np.ix_(rows, cols)], 120)
             for params, case in zip(draws, cases) if case == report.worst_case]
    assert any(det == pytest.approx(float(x), rel=1e-9, abs=1e-300) for x in exact)


def test_ntp_suite_rejects_span_too_narrow_to_draw_from():
    # [a0 + eps, an - eps] holds two doubles, and an interior trial needs
    # five distinct parameters: the draws give up instead of repeating forever
    ns = NodeSet([1e16, 1e16, 1e16, 1e16, 1e16 + 2])
    with pytest.raises(ValueError, match="no 5 distinct parameters drawn .* too narrow"):
        verify_ntp_suite(ns, None, trials=1)


_FAR_FROM_ZERO = [1e16, 1e16 + 200, 1e16 + 400, 1e16 + 600, 1e16 + 1000]


def test_ntp_suite_draws_inside_a_domain_far_from_zero():
    # eps = 1e-6 * 1000 is below half an ulp of 1e16, so a0 + eps rounds to
    # a0; endpoint trials drew a0 next to the fixed a0 on 12 of these seeds.
    # Every trial passes: minors from closed forms and LAPACK failed 71 of
    # these 4000 trials, on 33 seeds, where the Laplace recursion fails none
    ns = NodeSet(_FAR_FROM_ZERO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            report = verify_ntp_suite(ns, None, trials=100, seed=seed)
            assert report.trials == 100 and report.passed, seed


def test_ntp_suite_stacks_have_no_entry_above_one(monkeypatch):
    # the stacked verdict judges a stack as given, with no row scaling: rows
    # of the rational basis sum to one, and for 0 <= x <= s IEEE division
    # gives x / s <= 1, so no suite hands it an entry above one
    highest, judge = [], totalpos._tp_reports
    monkeypatch.setattr(totalpos, "_tp_reports",
                        lambda stack: highest.append(np.abs(stack).max()) or judge(stack))
    circle = datasets.circle_problem()
    for ns, w, trials, seed in ((circle.nodeset, circle.weights, 4000, 3),
                                (datasets.helix_node_set(), datasets.helix_weights(), 40, 0),
                                (NodeSet(np.linspace(0.0, 1.0, 64), None, 63), None, 8, 0),
                                (NodeSet(np.r_[0:5, 4:11].astype(float)), None, 40, 0),
                                (NodeSet(_FAR_FROM_ZERO), None, 100, 0)):
        highest.clear()
        assert verify_ntp_suite(ns, w, trials, seed).passed
        assert highest and max(highest) <= 1.0, ns.size


def test_det_stack_singular_minor_is_zero_without_warning():
    # a minor of the suite above at seed 0: LAPACK's LU divides by zero on
    # it, and the determinant is the exact 0.0, as the Laplace expansion's
    # over its zero first row is
    minor = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [9.209994418286336e-29, 8.482399718478832e-57, 7.812285406079259e-85,
         6.626692752914273e-141],
        [0.0, 1.38760708e-315, 1.2440686266793217e-210, 1.0],
        [0.0, 0.0, 8.457338737195012e-262, 1.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = det_stack(minor[None])
        expanded = _laplace_orders(minor[None])[-1]
    assert dets.tolist() == [0.0] and expanded.ravel().tolist() == [0.0]

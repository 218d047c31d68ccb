"""Tests for collocation matrices, power reduction, generalized Vandermonde
matrices, and the total-positivity checks."""

import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from gtbezier import (
    EXHAUSTIVE_LIMIT,
    NodeSet,
    NtpSuiteReport,
    is_totally_positive,
    log_basis_matrix,
    power_reduction,
    rational_collocation_matrix,
    validate_params,
    verify_ntp_suite,
)
from gtbezier import datasets, totalpos
from gtbezier.basis import bernstein_equivalent_nodeset
from gtbezier.totalpos import (BOUNDARY_CASES, DEFAULT_REL_TOL, TpReport, _det_stack,
                                _draw_params, _tp_reports)
from oracles import GenVandermondeSpec, generalized_vandermonde


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
    return np.exp(log_basis_matrix(ns, validate_params(ns, params)))


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
    for build in (validate_params, power_reduction,
                  lambda ns, p: rational_collocation_matrix(ns, None, p)):
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
    assert report.method == "exhaustive"
    assert report.is_tp and report.is_stp
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


def test_power_reduction_hand_values():
    ns = NodeSet([0, 1])
    a = power_reduction(ns, [1 / 3, 2 / 3])
    np.testing.assert_allclose(a, [[1.0, 0.5], [1.0, 2.0]], atol=1e-15)
    assert np.linalg.det(a) == pytest.approx(1.5)


def test_power_reduction_border_rows():
    ns = NodeSet([0, 1])
    np.testing.assert_array_equal(power_reduction(ns, [0.0, 0.5]), [[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(power_reduction(ns, [0.5, 1.0]), [[1.0, 1.0], [0.0, 1.0]])


def test_power_reduction_tp_equivalent_to_collocation():
    # row/column scalings connect the two matrices, so exhaustive verdicts
    # must agree on random instances
    rng = np.random.default_rng(17)
    for _ in range(50):
        ns = _random_node_set(rng)
        params = _interior_params(rng, ns)
        b = _raw_collocation_matrix(ns, params)
        a = power_reduction(ns, params)
        assert is_totally_positive(b).is_tp == is_totally_positive(a).is_tp


def test_rational_basis_is_scaled_power_matrix():
    # the paper's scaling relation: normalizing the rows of the power matrix
    # times diag(c * w) gives the rational collocation matrix
    rng = np.random.default_rng(23)
    for _ in range(50):
        ns = _random_node_set(rng)
        w = rng.uniform(0.2, 3.0, ns.size)
        params = _interior_params(rng, ns)
        scaled = power_reduction(ns, params) * (ns.coefficients * w)
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
    # any order; its determinant must be the minor its indices name
    rng = np.random.default_rng(31)
    orders = set()
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            m = rng.normal(size=(n, n))
            rows, cols, det = is_totally_positive(m).witness
            orders.add(len(rows))
            expected = _cofactor_det(m[np.ix_(rows, cols)])
            assert det == pytest.approx(expected, rel=1e-10)
    assert orders == {1, 2, 3, 4, 5, 6}


def test_is_tp_identity_and_antidiagonal():
    rep = is_totally_positive(np.eye(2))
    assert rep.is_tp and not rep.is_stp
    assert rep.witness[2] == 0.0
    rep = is_totally_positive([[0.0, 1.0], [1.0, 0.0]])
    assert not rep.is_tp
    assert rep.witness[2] == pytest.approx(-1.0)


def test_is_tp_selects_enumeration_by_size():
    assert EXHAUSTIVE_LIMIT == 8
    assert is_totally_positive(np.ones((8, 8))).method == "exhaustive"
    assert is_totally_positive(np.ones((2, 8))).method == "exhaustive"
    assert is_totally_positive(np.ones((9, 9))).method == "contiguous"
    assert is_totally_positive(np.ones((2, 9))).method == "contiguous"
    assert is_totally_positive(np.ones((9, 9))).is_tp
    # the helix collocation matrix is 31 x 31; the verdict never refuses a size
    prob = datasets.helix_problem()
    rep = is_totally_positive(
        rational_collocation_matrix(prob.nodeset, prob.weights, prob.params))
    assert rep.method == "contiguous" and rep.is_tp


def test_is_tp_large_entries_do_not_overflow():
    # raw basis entries reach 3.4e114, so unscaled minors overflow to inf;
    # positive row scalings keep every minor's sign, so the verdict must
    # match that of the row-normalized matrix
    mpmath = pytest.importorskip("mpmath")
    ns = NodeSet(np.arange(9.0), np.ones(9), 8.0)
    m = np.exp(log_basis_matrix(ns, np.linspace(0.3, 7.7, 9)))
    assert m.max() > 1e114
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = is_totally_positive(m)
        normalized = is_totally_positive(m / m.max(axis=1, keepdims=True))
    assert rep.is_tp and normalized.is_tp
    assert rep.is_stp == normalized.is_stp
    rows, cols, det = rep.witness
    with mpmath.workdps(50):
        exact = mpmath.det(mpmath.matrix(m[np.ix_(rows, cols)].tolist()))
        assert det == pytest.approx(float(exact), rel=1e-9)


def test_is_tp_input_validation():
    with pytest.raises(ValueError, match="non-negative"):
        is_totally_positive(np.eye(2), tol=-1.0)
    with pytest.raises(ValueError, match="finite"):
        is_totally_positive([[np.inf, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_is_tp_rejects_non_finite_tol(tol):
    # a NaN margin fails every comparison, so the identity would read not TP;
    # an infinite tolerance overflows the margins
    with pytest.raises(ValueError, match="finite and non-negative"):
        is_totally_positive(np.eye(2), tol=tol)


def test_example_collocation_is_tp():
    prob = datasets.circle_problem()
    rng = np.random.default_rng(37)
    params = _interior_params(rng, prob.nodeset)
    rep = is_totally_positive(rational_collocation_matrix(prob.nodeset, prob.weights, params))
    assert rep.is_tp and rep.method == "exhaustive"


def test_contiguous_stp_implies_exhaustive_tp():
    # above EXHAUSTIVE_LIMIT only windows are checked; a window STP verdict
    # (every window minor positive, tol=0) must hold up against all minors,
    # enumerated by the oracle and accepted as in the exhaustive verdict
    rng = np.random.default_rng(41)
    for n, count in ((9, 48619), (9, 48619), (10, 184755)):
        while True:
            nodes = np.sort(rng.uniform(0.0, 3.0, n))
            if np.all(np.diff(nodes) > 0.05):
                break
        ns = NodeSet(nodes, rng.uniform(0.2, 2.0, n), rng.uniform(0.3, 2.0))
        mat = _raw_collocation_matrix(ns, _interior_params(rng, ns))
        report = is_totally_positive(mat, tol=0.0)
        assert report.method == "contiguous" and report.is_stp
        dets, scales = _all_minors(mat)
        assert dets.size == count
        assert np.all(dets >= -1e-9 * scales)
        # negative control: a column swap leaves a negative window minor
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
        assert report.is_tp or not report.is_stp  # is_stp implies is_tp
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
    with pytest.raises(ValueError, match="trial"):
        verify_ntp_suite(prob.nodeset, prob.weights, trials=0)


@pytest.mark.parametrize("trials", [np.nan, 2.5, 3.0, "4"])
def test_ntp_suite_rejects_non_integer_trials(trials):
    prob = datasets.circle_problem()
    with pytest.raises(TypeError, match="trials must be an integer"):
        verify_ntp_suite(prob.nodeset, prob.weights, trials=trials)
    assert verify_ntp_suite(prob.nodeset, prob.weights, trials=np.int64(3)).trials == 3


def test_ntp_suite_reports_pinned():
    # pinned suite reports, witnesses included: the 5-node circle is judged
    # on every minor, the 31-node helix on contiguous windows
    circle = datasets.circle_problem()
    report = verify_ntp_suite(circle.nodeset, circle.weights, trials=400, seed=20240809)
    assert report == NtpSuiteReport(
        trials=400, failures=0, worst_minor=0.0, worst_witness=((0,), (1,), 0.0),
        worst_case="left", failed_trials=())
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    assert verify_ntp_suite(ns, w, trials=8, seed=3) == NtpSuiteReport(
        trials=8, failures=0, worst_minor=0.0, worst_witness=((0,), (1,), 0.0),
        worst_case="left", failed_trials=())
    # a one-trial suite is interior only, so its witness is a nonzero minor
    interior = verify_ntp_suite(ns, w, trials=1, seed=3)
    assert interior.worst_case == "interior"
    assert interior.worst_witness[:2] == ((0, 1, 2, 3, 4, 5), (25, 26, 27, 28, 29, 30))
    assert interior.worst_minor == pytest.approx(6.678522287174328e-208, rel=1e-9)


def _reference_suite(ns, w, trials, seed):
    """The NTP suite one trial at a time: draw the trial's parameters, build
    its collocation matrix, judge it alone, and fold the reports in order."""
    a0, an = ns.domain
    eps = 1e-6 * (an - a0)
    failed, worst = [], (np.inf, None, None)  # (witness det, witness, case)
    for trial in range(trials):
        case = BOUNDARY_CASES[trial % len(BOUNDARY_CASES)]
        params = _draw_params(np.random.default_rng([seed, trial]), case, a0, an, eps, ns.size)
        report = is_totally_positive(rational_collocation_matrix(ns, w, params))
        if not report.is_tp:
            failed.append((trial, case))
        if report.witness is not None and report.witness[2] < worst[0]:
            worst = (report.witness[2], report.witness, case)
    return NtpSuiteReport(trials, len(failed), worst[0], worst[1], worst[2], tuple(failed))


def _suite_stacks(monkeypatch, ns, w, trials, seed=0):
    """Shapes of the matrix stacks verify_ntp_suite judges, in call order."""
    shapes, judge = [], totalpos._tp_reports
    monkeypatch.setattr(totalpos, "_tp_reports",
                        lambda stack, tol: shapes.append(stack.shape) or judge(stack, tol))
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
    # a same-shape stack of TP and non-TP matrices, with and without row
    # scaling: no scaling or witness may leak from one matrix to another
    ns, w = datasets.circle_node_set(), np.array(datasets.CIRCLE_WEIGHTS)
    a0, an = ns.domain
    rng = np.random.default_rng(47)
    mats = [rational_collocation_matrix(ns, w, _draw_params(rng, case, a0, an, 1e-6, 5))
            for case in BOUNDARY_CASES]
    mats += [m[:, [1, 0, 2, 3, 4]] for m in mats]
    raw = _raw_collocation_matrix(NodeSet(np.arange(5.0), np.ones(5), 8.0),
                                  np.linspace(0.3, 3.7, 5))
    assert raw.max() > 1e40
    mats += [raw, np.eye(5), np.eye(5)[::-1]]
    stack = np.array(mats)
    reports = _tp_reports(stack, DEFAULT_REL_TOL)
    assert reports == [_tp_reports(m[None], DEFAULT_REL_TOL)[0] for m in stack]
    assert _tp_reports(stack[::-1], DEFAULT_REL_TOL) == reports[::-1]
    verdicts = []
    for m, report in zip(stack, reports):
        dets, scales = _all_minors(m)
        assert report.is_tp == bool(np.all(dets >= -DEFAULT_REL_TOL * scales))
        assert report.is_stp == bool(np.all(dets > DEFAULT_REL_TOL * scales))
        verdicts.append(report.is_tp)
    assert verdicts == [True] * 4 + [False] * 4 + [True, True, False]


def _gathered_window_report(m, tol):
    """Reference for the window verdict of one matrix: each order's k x k
    windows gathered into a copy by index arrays, their row norms by
    np.linalg.norm and np.prod, their determinants by _det_stack (closed
    form up to order 3, np.linalg.det above)."""
    r, c = m.shape
    row_max = np.max(np.abs(m), axis=1)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    m = np.ldexp(m, -shifts[:, None])
    is_tp, is_stp, worst, witness = True, True, np.inf, None
    for k in range(1, min(r, c) + 1):
        rset = np.arange(r - k + 1)[:, None] + np.arange(k)
        cset = np.arange(c - k + 1)[:, None] + np.arange(k)
        subs = m[None][:, rset[:, None, :, None], cset[None, :, None, :]]
        dets = _det_stack(subs)[0]
        scales = np.prod(np.linalg.norm(subs, axis=4), axis=3)[0]
        margins = dets + tol * scales
        is_tp &= bool(np.all(margins >= 0.0))
        is_stp &= bool(np.all(dets > tol * scales))
        unscale = shifts[rset].sum(axis=1)[:, None]
        with np.errstate(over="ignore"):
            margins, dets = np.ldexp(margins, unscale), np.ldexp(dets, unscale)
        i, j = np.unravel_index(np.argmin(margins), margins.shape)
        if margins[i, j] < worst:
            worst = margins[i, j]
            witness = (tuple(rset[i].tolist()), tuple(cset[j].tolist()), float(dets[i, j]))
    return TpReport(is_tp, is_stp, witness, "contiguous")


@pytest.mark.parametrize("tol", [0.0, DEFAULT_REL_TOL])
def test_window_views_equal_gathered_windows(tol):
    # reading windows as strided views changes no determinant, scale or
    # witness: reports are == the gathered reference, matrix by matrix, on
    # random, TP (Vandermonde) and row-scaled matrices of every window size
    rng = np.random.default_rng(2026)
    stacks = []
    for n in (*range(9, 31, 3), 31):
        t = np.sort(rng.uniform(0.5, 2.0, n))
        tp = generalized_vandermonde(GenVandermondeSpec(t, np.arange(n) * rng.uniform(0.2, 1.0)))
        noise = rng.uniform(-0.1, 1.0, (2, n, n)) * np.exp(rng.uniform(-5.0, 5.0, (2, n, n)))
        stacks.append(np.concatenate([tp[None], noise]))
    # shapes with one dimension at or below EXHAUSTIVE_LIMIT take windows too
    stacks += [rng.uniform(-0.1, 1.0, (3, r, c))
               for r, c in ((2, 9), (9, 2), (1, 20), (5, 12), (12, 5))]
    stacks += [s * 2.0 ** rng.uniform(0.0, 600.0, s.shape[:2])[:, :, None] for s in stacks[-6:]]
    verdicts = set()
    for stack in stacks:
        reports = _tp_reports(stack, tol)
        assert reports == [_gathered_window_report(m, tol) for m in stack]
        verdicts.update(rep.is_tp for rep in reports)
    assert verdicts == {True, False}


def test_ntp_suite_stacks_stay_within_gather_limit(monkeypatch):
    # what every order materializes for a stack stays within the ceiling
    # unless one trial alone exceeds it, as 8 nodes (every minor) do: the
    # gathered minors (trials x minors x k x k elements) of exhaustive
    # enumeration, the determinant grid (trials x windows) of window views
    def gathered(trials, n):
        if n <= EXHAUSTIVE_LIMIT:
            return trials * max((comb(n, k) * k) ** 2 for k in range(1, n + 1))
        return trials * max((n - k + 1) ** 2 for k in range(1, n + 1))

    circle = datasets.circle_problem()
    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials, stacked in (((circle.nodeset, circle.weights), 100, 40),
                                     ((bernstein_equivalent_nodeset(7), None), 3, 1),
                                     (helix, 2, 2), (helix, 70, 68),
                                     ((NodeSet(np.arange(12.0)), None), 40, 40)):
        shapes = _suite_stacks(monkeypatch, ns, w, trials)
        assert sum(t for t, _, _ in shapes) == trials
        assert all(shape[1:] == (ns.size, ns.size) for shape in shapes)
        assert all(gathered(t, ns.size) <= totalpos._GATHER_LIMIT or t == 1 for t, _, _ in shapes)
        if stacked == 1:
            assert {t for t, _, _ in shapes} == {1}
        else:
            assert shapes[0][0] >= stacked


def test_ntp_suite_rejects_span_too_narrow_to_draw_from():
    # [a0 + eps, an - eps] holds two doubles, and an interior trial needs
    # five distinct parameters: the draws give up instead of repeating forever
    ns = NodeSet([1e16, 1e16, 1e16, 1e16, 1e16 + 2])
    with pytest.raises(ValueError, match="no 5 distinct parameters drawn .* too narrow"):
        verify_ntp_suite(ns, None, trials=1)


def test_ntp_suite_draws_inside_a_domain_far_from_zero():
    # eps = 1e-6 * 1000 is below half an ulp of 1e16, so a0 + eps rounds to
    # a0; endpoint trials drew a0 next to the fixed a0 on 12 of these seeds
    ns = NodeSet([1e16, 1e16 + 200, 1e16 + 400, 1e16 + 600, 1e16 + 1000])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            assert verify_ntp_suite(ns, None, trials=100, seed=seed).trials == 100


def test_det_stack_singular_minor_is_zero_without_warning():
    # a minor of the suite above at seed 0: LAPACK's LU divides by zero on
    # it, and the determinant is the exact 0.0
    minor = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [9.209994418286336e-29, 8.482399718478832e-57, 7.812285406079259e-85,
         6.626692752914273e-141],
        [0.0, 1.38760708e-315, 1.2440686266793217e-210, 1.0],
        [0.0, 0.0, 8.457338737195012e-262, 1.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = _det_stack(minor[None])
    assert dets.tolist() == [0.0]


@pytest.mark.parametrize("bad", ["non-increasing", "out-of-domain", "nan"])
def test_ntp_suite_rejects_bad_drawn_params(monkeypatch, bad):
    # the suite checks each chunk's drawn parameters once, as one array
    ns, w = datasets.circle_node_set(), datasets.CIRCLE_WEIGHTS
    draw = totalpos._draw_params

    def broken(rng, case, a0, an, eps, count):
        params = draw(rng, case, a0, an, eps, count)
        if bad == "non-increasing":
            params[2] = params[1]
        else:
            params[-1] = an + 1.0 if bad == "out-of-domain" else np.nan
        return params

    monkeypatch.setattr(totalpos, "_draw_params", broken)
    with pytest.raises(ValueError, match="strictly increasing inside the domain"):
        verify_ntp_suite(ns, w, trials=10, seed=1)

"""Tests for collocation matrices, the power reduction (against the oracles'
power matrix), generalized Vandermonde matrices, and the total-positivity
checks."""

import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
                               _det_stack, _method, _tp_reports, _window_dets)
from bad_inputs import BAD_COUNTS
from oracles import (GenVandermondeSpec, draw_params, generalized_vandermonde, mp_det,
                     power_matrix, raw_log_basis, reference_draws)


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
    assert rep.is_tp
    assert rep.witness[2] == 0.0
    rep = is_totally_positive([[0.0, 1.0], [1.0, 0.0]])
    assert not rep.is_tp
    assert rep.witness[2] == pytest.approx(-1.0)


def test_is_tp_selects_enumeration_by_size():
    assert EXHAUSTIVE_LIMIT == 8
    assert _method(8, 8) == _method(2, 8) == "exhaustive"
    assert _method(9, 9) == _method(2, 9) == "contiguous"
    assert is_totally_positive(np.ones((9, 9))).is_tp
    # the helix collocation matrix is 31 x 31; the verdict never refuses a size
    prob = datasets.helix_problem()
    rep = is_totally_positive(
        rational_collocation_matrix(prob.nodeset, prob.weights, prob.params))
    assert rep.is_tp


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
    # a matrix with no row above 1 is judged as given, not on a scaled copy,
    # so nothing may write to it: read-only float64 inputs, by windows (a
    # left-endpoint helix trial, whose unit first row zeroes windows) and by
    # every minor, unscaled and with a row scaled, keep their bytes
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


@pytest.mark.parametrize("m", [[[np.finfo(float).max]], np.full((2, 2), np.finfo(float).max)],
                         ids=["1x1", "2x2"])
def test_is_tp_witness_where_every_margin_overflows(m):
    # each minor's margin is inf in the original scale, where the witness is
    # chosen; the first minor of order 1 is the witness, not None
    rep = is_totally_positive(m)
    assert rep.is_tp
    assert rep.witness == ((0,), (0,), float(np.finfo(float).max))


def test_example_collocation_is_tp():
    prob = datasets.circle_problem()
    rng = np.random.default_rng(37)
    params = _interior_params(rng, prob.nodeset)
    rep = is_totally_positive(rational_collocation_matrix(prob.nodeset, prob.weights, params))
    assert rep.is_tp


def test_contiguous_stp_implies_exhaustive_tp(monkeypatch):
    # above EXHAUSTIVE_LIMIT only windows are checked; a window verdict with
    # no tolerance whose witness is positive (every window minor positive)
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
    # on every minor, the 31-node helix on contiguous windows
    circle = datasets.circle_problem()
    report = verify_ntp_suite(circle.nodeset, circle.weights, trials=400, seed=20240809)
    assert report == NtpSuiteReport(
        trials=400, worst_witness=((0,), (1,), 0.0), worst_case="left", failed_trials=())
    assert (report.failures, report.worst_minor) == (0, 0.0)
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    assert verify_ntp_suite(ns, w, trials=8, seed=3) == NtpSuiteReport(
        trials=8, worst_witness=((0,), (1,), 0.0), worst_case="left", failed_trials=())
    # a one-trial suite is interior only, so its witness is a nonzero minor
    interior = verify_ntp_suite(ns, w, trials=1, seed=3)
    assert interior.worst_case == "interior"
    assert interior.worst_witness[:2] == ((0, 1, 2, 3, 4, 5), (25, 26, 27, 28, 29, 30))
    assert interior.worst_minor == pytest.approx(6.678522287174328e-208, rel=1e-9)


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
    # a same-shape stack of TP and non-TP matrices, with and without row
    # scaling: no scaling or witness may leak from one matrix to another
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
    of two, as _tp_reports scales it, and the shifts."""
    row_max = np.max(np.abs(m), axis=-1)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    return np.ldexp(m, -shifts[..., None]), shifts


def _gathered_window_report(m, tol, lapack=False, grids=None):
    """Reference for the window verdict of one matrix: each order's k x k
    windows gathered into a copy by index arrays, their row norms by
    np.linalg.norm and np.prod; their determinants from grids, each order's
    of the row-scaled matrix, by default from _window_dets, or, with lapack,
    from _det_stack (closed form up to order 3, np.linalg.det above) on the
    gathered copies."""
    r, c = m.shape
    m, shifts = _row_scaled(m)
    if grids is None and not lapack:
        grids = [grid[0] for grid in _window_dets(m[None])]
    is_tp, worst, witness = True, np.inf, None
    for k in range(1, min(r, c) + 1):
        rset = np.arange(r - k + 1)[:, None] + np.arange(k)
        cset = np.arange(c - k + 1)[:, None] + np.arange(k)
        subs = m[None][:, rset[:, None, :, None], cset[None, :, None, :]]
        dets = _det_stack(subs)[0] if lapack else grids[k - 1]
        scales = np.prod(np.linalg.norm(subs, axis=4), axis=3)[0]
        margins = dets + tol * scales
        is_tp &= bool(np.all(margins >= 0.0))
        unscale = shifts[rset].sum(axis=1)[:, None]
        with np.errstate(over="ignore"):
            margins, dets = np.ldexp(margins, unscale), np.ldexp(dets, unscale)
        i, j = np.unravel_index(np.argmin(margins), margins.shape)
        if margins[i, j] < worst:
            worst = margins[i, j]
            witness = (tuple(rset[i].tolist()), tuple(cset[j].tolist()), float(dets[i, j]))
    return TpReport(is_tp, witness)


def _window_test_stacks():
    """Random, TP (generalized Vandermonde) and row-scaled stacks of every
    window size; the first matrix of each of the first nine is TP, and so
    is the first of the row-scaled stacks."""
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
    return stacks


@pytest.mark.parametrize("tol", [0.0, DEFAULT_REL_TOL])
def test_window_views_equal_gathered_windows(monkeypatch, tol):
    # the stacked verdict's row-norm scales, unscaling and witness choice
    # are those of a reference that gathers every window into a copy:
    # reports are ==, matrix by matrix, on random, TP (Vandermonde) and
    # row-scaled matrices of every window size; both take each order's
    # determinants from _window_dets
    monkeypatch.setattr(totalpos, "DEFAULT_REL_TOL", tol)
    verdicts = set()
    for stack in _window_test_stacks():
        reports = _tp_reports(stack)
        assert reports == [_gathered_window_report(m, tol) for m in stack]
        verdicts.update(rep.is_tp for rep in reports)
    assert verdicts == {True, False}


def _helix_trials(seed, trials):
    """The helix suite's first trials at seed, rebuilt from their draws."""
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in range(trials)]
    draws = reference_draws(seed, range(trials), cases, *ns.domain, ns.size)
    return np.array([rational_collocation_matrix(ns, w, params) for params in draws])


def test_window_dets_match_mpmath(monkeypatch):
    # sampled windows of every order of the TP matrices, row-scaled as
    # _tp_reports scales them: every order of helix suite trial 0 at seed 1,
    # and one window an order of one of the Vandermonde matrices of the
    # window test (the row-scaled 31-node one among them). Against 50-digit
    # mpmath, each error is within a few ulps of the verdict's scale (the
    # product of the row norms), far below its tolerance. On orders 4 and
    # up, where _det_stack calls np.linalg.det, the errors' geometric mean
    # is below LAPACK's on the same windows (their largest is not: one
    # low-order window sets it, at about 1e-21 to 2e-19 of the scale, for
    # either method)
    mpmath = pytest.importorskip("mpmath")
    stacks = _window_test_stacks()
    helix = _helix_trials(1, 1)[0]
    assert verify_ntp_suite(datasets.helix_node_set(), datasets.helix_weights(), 1,
                            seed=1).worst_witness == is_totally_positive(helix).witness
    rng = np.random.default_rng(7)
    vander = [_row_scaled(s[0])[0] for s in stacks[:9] + stacks[-6:-5]]
    samples = [(helix, k) for k in range(1, 32)]
    samples += [(vander[rng.choice([q for q, m in enumerate(vander) if len(m) >= k])], k)
                for k in range(1, 32)]
    log_ratio = 0  # of the kernel's error to LAPACK's, summed over orders >= 4
    for m, k in samples:
        i, j = rng.integers(len(m) - k + 1, size=2)
        window = m[i:i + k, j:j + k]
        exact = mp_det(window)
        err = abs(mpmath.mpf(_window_dets(m[None])[k - 1][0, i, j]) - exact)
        assert err <= 4 * k * np.finfo(float).eps * np.prod(np.linalg.norm(window, axis=1))
        if k >= 4:
            ref = abs(mpmath.mpf(float(_det_stack(window[None])[0])) - exact)
            log_ratio += mpmath.log(err) - mpmath.log(ref)
    assert log_ratio < 0
    # every matrix of the window test keeps the LAPACK reference's verdict,
    # and its witness at the library's tolerance; with none, the witness of a
    # TP Vandermonde matrix is its most negative rounding error and moves
    for tol in (0.0, DEFAULT_REL_TOL):
        monkeypatch.setattr(totalpos, "DEFAULT_REL_TOL", tol)
        for stack in stacks:
            for m, report in zip(stack, _tp_reports(stack)):
                ref = _gathered_window_report(m, tol, lapack=True)
                assert report.is_tp == ref.is_tp
                if tol:
                    assert report.witness[:2] == ref.witness[:2]


@pytest.mark.parametrize("k, rows, cols, exact", [
    (19, 4, 12, 7.383e-125), (18, 4, 13, 9.475e-129), (20, 2, 11, 2.738e-141)])
def test_window_dets_give_helix_minors_their_sign(k, rows, cols, exact):
    # helix suite trial 0 at seed 1 is TP; np.linalg.det has given these
    # minors the wrong sign and is off by up to 480% on them, while the
    # elimination agrees with 50-digit mpmath
    m = _helix_trials(1, 1)[0]
    window = m[rows:rows + k, cols:cols + k]
    det = _window_dets(m[None])[k - 1][0, rows, cols]
    reference = float(mp_det(window))
    assert reference == pytest.approx(exact, rel=1e-3)
    assert det == pytest.approx(reference, rel=1e-3)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_window_dets_fall_back_to_det_stack(monkeypatch):
    # a window's Neville steps divide by the pivots of the windows of its
    # column offset inside its first k-1 rows; a division by a zero one
    # leaves the row non-finite in every later column, so the window's own
    # last pivot turns non-finite. A window with a row zero across its
    # columns is then +0.0, bit for bit: the unit first row of the left and
    # both-endpoint helix trials zeroes the first pivot of offsets j > 0,
    # which the windows (0, j > 0, k > 1) divide by, and their row 0 is zero
    # from column 1 on. A non-finite window with no zero row is _det_stack's,
    # bit for bit: an antidiagonal matrix has a zero leading pivot with
    # nonzero later minors off its antidiagonal and a zero second pivot on
    # it. Each also with its rows scaled by 2**600, then down again as
    # _tp_reports scales them
    trials = _helix_trials(1, 4)
    n = trials.shape[1]
    left = [(0, j, k) for j in range(1, n) for k in range(2, n - j + 1)]
    for m in (trials[1], trials[3]):
        for scaled in (m, m * 2.0**600):
            grids = _window_dets(_row_scaled(scaled)[0][None])
            assert all(_bits(grids[k - 1][0, i, j]) == _bits(0.0) for i, j, k in left)
    anti = [(i, j, k) for k in range(1, 10) for i in range(10 - k) for j in range(10 - k)
            if k > 1 or i + j != 8]
    # an exact zero at (3, 2), below the top row of the windows (i < 3, 2, k)
    # that reach row 4: offset 2's first step divides row 4 by it, though
    # these windows and their leading minors are nonzero and have no zero row
    zeroed = np.random.default_rng(5).uniform(0.5, 1.5, (9, 9))
    zeroed[3, 2] = 0.0
    below = [(i, 2, k) for i in range(3) for k in range(5 - i, 8)]
    assert all(_det_stack(zeroed[None, i:i + q, 2:2 + q])[0] != 0.0
               for i, _, k in below for q in range(1, k + 1))
    sent, det_stack = [], totalpos._det_stack
    monkeypatch.setattr(totalpos, "_det_stack",
                        lambda subs: sent.append(subs.copy()) or det_stack(subs))
    for m, windows in ((np.eye(9)[::-1], anti), (zeroed, below)):
        for scaled in (m, m * 2.0**600):
            scaled = _row_scaled(scaled)[0]
            sent.clear()
            grids = _window_dets(scaled[None])
            for i, j, k in windows:
                expected = _det_stack(scaled[None, i:i + k, j:j + k])[0]
                assert _bits(grids[k - 1][0, i, j]) == _bits(expected)
            if m is zeroed:
                # 17 windows go there, the 12 below among them
                assert sum(map(len, sent)) == 17
                assert all(any((subs == scaled[i:i + k, j:j + k]).all(axis=(1, 2)).any()
                               for subs in sent if subs.shape[1:] == (k, k))
                           for i, j, k in windows)
    assert is_totally_positive(np.eye(9)[::-1]).witness[2] == -1.0
    # no helix trial sends a window there: at seed 7, one trial per boundary
    # case, the windows under a unit first row are zeros and those over a
    # unit last row have finite chains
    counts = []
    for m in _helix_trials(7, 4):
        sent.clear()
        _tp_reports(m[None])
        counts.append(sum(map(len, sent)))
    assert counts == [0, 0, 0, 0]


def _routed_window_dets(m):
    """Every order's window determinants of one row-scaled matrix, with each
    window whose product of pivots is not finite sent to _det_stack, zero
    row or not: eliminating m[i:, j:] without row exchanges, as
    _window_dets' passes do, leaves window (i, j, k)'s k-th pivot on the
    diagonal. Also the number of windows with a zero row sent there."""
    r, c = m.shape
    grids = [np.empty((r - k + 1, c - k + 1)) for k in range(1, min(r, c) + 1)]
    sent = 0
    with np.errstate(all="ignore"):
        for i, j in np.ndindex(r, c):
            a = m[i:, j:].copy()
            mant, expo = 1.0, 0
            for k in range(1, min(a.shape) + 1):
                if k > 1:
                    s = k - 2
                    a[s + 1:, s + 1:] -= (a[s + 1:, s] / a[s:-1, s])[:, None] * a[s:-1, s + 1:]
                pivot_mant, pivot_expo = np.frexp(a[k - 1, k - 1])
                mant, expo = pivot_mant * mant, expo + int(pivot_expo)
                window = m[i:i + k, j:j + k]
                det = np.ldexp(mant, expo)
                if not np.isfinite(det):
                    det = _det_stack(window[None])[0]
                    sent += bool((window == 0.0).all(axis=1).any())
                grids[k - 1][i, j] = det
    return grids, sent


def test_zero_row_windows_equal_the_lapack_routing():
    # _tp_reports is == a reference whose non-finite windows all go to
    # _det_stack, and each window with a row zero across its columns is 0,
    # on stacks whose matrices have a unit first or last row, rows zero over
    # a run of columns, or random rows; each as given and with its rows
    # scaled by 2**600, and in one stack only one matrix has a row above 1
    rng = np.random.default_rng(28)
    stacks = []
    for r, c in ((9, 9), (12, 12), (10, 13), (13, 10)):
        mats = rng.uniform(0.0, 1.0, (5, r, c))
        mats[0, 0], mats[1, -1] = np.eye(c)[0], np.eye(c)[-1]
        mats[2, 0], mats[2, -1] = np.eye(c)[0], np.eye(c)[-1]
        for q in rng.integers(r, size=3):
            lo, hi = np.sort(rng.integers(c + 1, size=2))
            mats[3, q, lo:hi] = 0.0
        stacks += [mats, mats * 2.0**600]
    mixed = stacks[2].copy()
    mixed[4, 3] *= 3.0
    stacks.append(mixed)
    sent = 0
    for stack in stacks:
        reference = []
        for m in stack:
            scaled = _row_scaled(m)[0]
            grids, count = _routed_window_dets(scaled)
            sent += count
            reference.append(_gathered_window_report(m, DEFAULT_REL_TOL, grids=grids))
            kernel = _window_dets(scaled[None])
            for k in range(1, min(m.shape) + 1):
                rows = sliding_window_view(scaled == 0.0, (k, k)).all(axis=3).any(axis=2)
                assert np.all(kernel[k - 1][0][rows] == 0.0)
                assert np.all(grids[k - 1][rows] == 0.0)
        assert _tp_reports(stack) == reference
    assert sent > 0


def test_window_dets_keep_a_zero_pivot_on_a_finite_chain(monkeypatch):
    # a window whose own pivot is an exact zero, after finite pivots, has the
    # computed determinant 0 and never reaches _det_stack (here made to give
    # NaN): the unit last row of a right-endpoint helix trial is zero in the
    # columns of the windows (i, j < i) that end on it, the unit first row
    # of a left-endpoint one in those of the windows (0, j > 0, 1), and on a
    # 9 x 9 matrix whose rows 4 and 5 are equal offset j's first step zeroes
    # row 5 past column 0, the last row of the windows (6 - k, j, k > 1)
    monkeypatch.setattr(totalpos, "_det_stack", lambda subs: np.full(subs.shape[:-2], np.nan))
    trials = _helix_trials(1, 4)
    n = trials.shape[1]
    right = [(i, j, n - i) for i in range(1, n) for j in range(i)]
    first = [(0, j, 1) for j in range(1, n)]
    twin = np.random.default_rng(5).uniform(0.5, 1.5, (9, 9))
    twin[5] = twin[4]
    pair = [(6 - k, j, k) for k in range(2, 7) for j in range(10 - k)]
    for m, windows in ((trials[2], right), (trials[1], first), (twin, pair)):
        for scaled in (m, m * 2.0**600):
            grids = _window_dets(_row_scaled(scaled)[0][None])
            assert all(grids[k - 1][0, i, j] == 0.0 for i, j, k in windows)


def test_window_dets_do_not_depend_on_the_stack():
    # a window's bits are its own: helix stacks of 1, 4 and 68 trials (a
    # suite chunk holds 6) are judged exactly as each trial alone
    trials = _helix_trials(5, 68)
    alone = [_tp_reports(m[None])[0] for m in trials]
    for count in (1, 4, 68):
        assert _tp_reports(trials[:count]) == alone[:count]
    stacked = _window_dets(trials[:4])
    for t, m in enumerate(trials[:4]):
        assert all(_bits(a[t]) == _bits(b[0]) for a, b in zip(stacked, _window_dets(m[None])))


def test_ntp_suite_stacks_stay_within_gather_limit(monkeypatch):
    # what a stack's verdict holds at once stays within the ceiling unless
    # one trial alone exceeds it, as 8 nodes (every minor) and 64 nodes
    # (windows) do: the gathered minors of one order (trials x minors x k x
    # k elements) of exhaustive enumeration, the determinant grids of every
    # order (trials x windows) of window views
    def held(trials, n):
        if n <= EXHAUSTIVE_LIMIT:
            return trials * max((comb(n, k) * k) ** 2 for k in range(1, n + 1))
        return trials * sum((n - k + 1) ** 2 for k in range(1, n + 1))

    circle = datasets.circle_problem()
    helix = datasets.helix_node_set(), datasets.helix_weights()
    for (ns, w), trials, stacked in (((circle.nodeset, circle.weights), 100, 40),
                                     ((bernstein_equivalent_nodeset(7), None), 3, 1),
                                     (helix, 4, 4), (helix, 14, 6),
                                     ((NodeSet(np.arange(12.0)), None), 40, 40),
                                     ((NodeSet(np.linspace(0, 1, 64), None, 63), None), 2, 1)):
        shapes = _suite_stacks(monkeypatch, ns, w, trials)
        assert sum(t for t, _, _ in shapes) == trials
        assert all(shape[1:] == (ns.size, ns.size) for shape in shapes)
        assert all(held(t, ns.size) <= totalpos._GATHER_LIMIT or t == 1 for t, _, _ in shapes)
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

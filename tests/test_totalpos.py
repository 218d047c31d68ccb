"""Tests for collocation matrices, the power reduction (against the oracles'
power matrix), generalized Vandermonde matrices, and the total-positivity
checks: their public results against the corpus in tp_corpus.py and its
exact oracle, and their kernels, through verdict_internals, against mpmath."""

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
from gtbezier.basis import MAX_EXPONENT_SPAN, bernstein_equivalent_nodeset
from gtbezier.totalpos import BOUNDARY_CASES, DEFAULT_REL_TOL, EXHAUSTIVE_LIMIT, TpReport
import verdict_internals as internals
from bad_inputs import BAD_COUNTS
from oracles import (GenVandermondeSpec, draw_params, every_minor_passes, exact_det, exact_tp,
                     generalized_vandermonde, mp_det, mp_initial_minors, power_matrix,
                     raw_log_basis)
from tp_corpus import (CORPUS, FAR_FROM_ZERO, ROWS, library_verdict, oracle_verdict,
                       suite_trials, twin, vandermonde)


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


def test_witness_det_matches_cofactor_oracle():
    # random matrices are far from TP, so the witness is a negative minor of
    # any order; its determinant must be the minor its indices name, expanded
    # by cofactors in exact arithmetic, also where rows above one are scaled
    # and the determinant mapped back. Every order is a witness on entries
    # in [-1, 1], which are judged unscaled
    normal, bounded = np.random.default_rng(31), np.random.default_rng(31)
    orders = set()
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            for m in (normal.normal(size=(n, n)), bounded.uniform(-1.0, 1.0, (n, n))):
                rows, cols, det = is_totally_positive(m).witness
                expected = float(exact_det(m[np.ix_(rows, cols)]))
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


def test_is_tp_selects_enumeration_by_size():
    # up to EXHAUSTIVE_LIMIT rows and columns every minor is judged, each
    # order from 2 to min(r, c) expanded over the one below; above it, in
    # either dimension, the expansion reaches no order
    assert EXHAUSTIVE_LIMIT == 8
    for shape, top in (((8, 8), 8), ((2, 8), 2), ((9, 9), 1), ((2, 9), 1), ((9, 2), 1)):
        assert is_totally_positive(np.ones(shape)).is_tp
        assert internals.expanded_orders(np.ones(shape)) == list(range(2, top + 1))
    # the helix collocation matrix is 31 x 31; the verdict never refuses a size
    prob = datasets.helix_problem()
    m = rational_collocation_matrix(prob.nodeset, prob.weights, prob.params)
    assert is_totally_positive(m).is_tp and internals.expanded_orders(m) == []


def test_laplace_minors_match_lapack_and_mpmath():
    # each sampled minor of orders 2 to 8 of the expansion is within 4 eps
    # of its scale (the product of its row norms) of 60-digit mpmath, about
    # 1 eps measured against a first-order bound of 800 eps at order 8, on
    # suites, random, zero-laden and row-scaled stacks, each with its rows
    # above one scaled as is_totally_positive scales them; on orders 4 and
    # up the errors' geometric mean is below np.linalg.det's on the same
    # minors (about 0.8 of it). The terms' left-to-right sum keeps an exact
    # -0.0, and a minor with a zero first row is an exact 0.0
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(32)
    circle = datasets.circle_problem()
    stacks = [np.array(suite_trials(circle.nodeset, circle.weights, 400, 3))]
    stacks += [np.array(suite_trials(NodeSet(np.arange(n) / (n - 1), None, n - 1), None, 40, 3))
               for n in (3, 6, 8)]
    stacks += [rng.uniform(-0.1, 1.0, (30, r, c)) for r, c in ((6, 8), (8, 5), (3, 7), (8, 8))]
    stacks += [rng.standard_normal((20, 7, 7)), rng.standard_normal((20, 8, 8))]
    zeros = rng.uniform(0.0, 1.0, (40, 8, 8))
    zeros[rng.uniform(size=zeros.shape) < 0.3] = 0.0
    stacks.append(zeros)
    stacks += [s * 2.0 ** rng.uniform(0.0, 600.0, s.shape[:2])[:, :, None]
               for s in (stacks[4], stacks[8])]
    checked = 0
    log_ratio = 0  # of the expansion's error to LAPACK's, summed over orders >= 4
    for stack in stacks:
        scaled = _row_scaled(stack)[0]
        r, c = stack.shape[1:]
        for k, minors in enumerate(internals.laplace_minors(scaled)[1:], 2):
            rset, cset = list(combinations(range(r), k)), list(combinations(range(c), k))
            for q, i, j in zip(*(rng.integers(n, size=8) for n in minors.shape)):
                sub = scaled[q][np.ix_(rset[i], cset[j])]
                scale = np.prod(np.sqrt(np.sum(sub * sub, axis=1)))
                exact = mp_det(sub, 60)
                err = abs(mpmath.mpf(float(minors[q, i, j])) - exact)
                assert err <= 4 * eps * scale, (stack.shape, k, float(err / (eps * scale)))
                checked += 1
                ref = abs(mpmath.mpf(float(np.linalg.det(sub))) - exact)
                if k >= 4 and err and ref:
                    log_ratio += mpmath.log(err) - mpmath.log(ref)
    assert checked == 8 * sum(max(min(s.shape[1:]) - 1, 0) for s in stacks)
    assert log_ratio < 0
    for first in ([-1.0, 0.0], [-1.0, 1.0, -1.0, 1.0]):
        m = np.zeros((len(first),) * 2)
        m[0] = first
        assert _bits(internals.laplace_minors(m[None])[-1]) == _bits(-0.0)
    zero_first_row = CORPUS["zero-first-row-4"].build()
    assert _bits(internals.laplace_minors(zero_first_row[None])[-1]) == _bits(0.0)


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
    # must hold up against every minor, all 48619 of a 9 x 9 matrix and
    # 184755 of a 10 x 10 one, each >= 0 in exact arithmetic
    rng = np.random.default_rng(41)
    for n in (9, 9, 10):
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
        assert every_minor_passes(mat, 0.0)
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
    # the corpus pins the suite reports, witnesses included: the 5-node
    # circle is judged on every minor, the 31-node helix on initial minors
    # without the unit rows of its boundary trials. Each helix witness is
    # checked against 120-digit mpmath: that of the 8-trial suite, in its
    # right-endpoint trial 2, is 3.47e-335, which underflows to 0.0 in
    # doubles; a one-trial suite is interior only, so its witness is a
    # nonzero minor
    report = verify_ntp_suite(*CORPUS["circle-400"].build())
    assert (report.failures, report.worst_minor, report.passed) == (0, 0.0, True)
    mpmath = pytest.importorskip("mpmath")
    trials = _helix_trials(3, 3)
    for name, trial, value in (("helix-8-seed3", 2, "3.4697e-335"),
                               ("helix-1-seed3", 0, "6.6785e-208")):
        rows, cols, det = verify_ntp_suite(*CORPUS[name].build()).worst_witness
        exact = mp_det(trials[trial][np.ix_(rows, cols)], 120)
        assert abs(exact / mpmath.mpf(value) - 1) < 1e-4
        assert det == pytest.approx(float(exact), rel=1e-9, abs=0.0)


def _reference_suite(ns, w, trials, seed):
    """The NTP suite one trial at a time: each trial's collocation matrix
    rebuilt from its draws and judged alone, and the reports folded in order."""
    cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in range(trials)]
    reports = [is_totally_positive(m) for m in suite_trials(ns, w, trials, seed)]
    failed = tuple((trial, case) for trial, case, report in zip(range(trials), cases, reports)
                   if not report.is_tp)
    # min keeps the first of equal determinants; NaN ranks after every number
    witness, case = min(zip((report.witness for report in reports), cases),
                        key=lambda pair: (np.isnan(pair[0][2]), pair[0][2]))
    return NtpSuiteReport(trials, witness, case, failed)


def test_ntp_suite_equals_trial_by_trial_reference():
    # the fold across stacks too: the helix's 18 trials are judged in stacks
    # of 17 and 1, the 64 uniform nodes' 9 in stacks of 4, 4 and 1
    circle = datasets.circle_problem()
    ns, w = circle.nodeset, circle.weights
    chunk = len(internals.suite_stacks(ns, w, 400)[0])
    helix = datasets.helix_node_set(), datasets.helix_weights()
    uniform = NodeSet(np.linspace(0.0, 1.0, 64), None, 63), None
    assert [len(s) for s in internals.suite_stacks(*helix, 18)] == [17, 1]
    assert [len(s) for s in internals.suite_stacks(*uniform, 9)] == [4, 4, 1]
    for (ns, w), trials, seed in (((ns, w), 400, 20240809), ((ns, w), chunk + 1, 7),
                                  (helix, 5, 3), (helix, 8, 3), (helix, 18, 3), (uniform, 9, 0),
                                  ((bernstein_equivalent_nodeset(3), None), 100, 1),
                                  ((NodeSet([0, 1]), None), 8, 3),
                                  ((NodeSet(np.arange(12.0)), None), 40, 5)):
        assert verify_ntp_suite(ns, w, trials, seed) == _reference_suite(ns, w, trials, seed)


def test_ntp_suite_builds_no_per_trial_report(monkeypatch):
    # a suite folds each stack's verdict arrays and builds no TpReport, not
    # one a trial; is_totally_positive builds one, so the count is live
    built = []
    monkeypatch.setattr(totalpos, "TpReport", lambda *args: built.append(args) or TpReport(*args))
    circle = datasets.circle_problem()
    assert verify_ntp_suite(circle.nodeset, circle.weights, 400).passed
    assert verify_ntp_suite(datasets.helix_node_set(), datasets.helix_weights(), 40).passed
    assert built == []
    assert is_totally_positive(np.eye(9)).is_tp and len(built) == 1


def _scale_1e4_suite(nodes, seed):
    """The 8-trial suite at seed on nodes at scale 1e4, where every trial of
    uniform nodes fails, and its trials rebuilt from their draws."""
    ns = NodeSet(nodes, None, 1e4)
    return ns, verify_ntp_suite(ns, None, 8, seed), suite_trials(ns, None, 8, seed)


def test_overflowed_pivots_judged_without_a_warning():
    # at scale 1e4 the elimination of trial 4 of 20 uniform nodes overflows
    # a pivot and meets a zero one past it: their product is NaN, made with
    # no numpy warning (the tests turn warnings into errors), and the
    # suite's report is pinned
    _, report, trials = _scale_1e4_suite(np.arange(20) / 19, 0)
    assert report == NtpSuiteReport(
        trials=8, worst_witness=(tuple(range(1, 9)), tuple(range(8)), 0.0), worst_case="interior",
        failed_trials=tuple((t, BOUNDARY_CASES[t % 4]) for t in range(8)))
    rep = is_totally_positive(trials[4])
    assert not rep.is_tp
    assert rep.witness[:2] == (tuple(range(1, 19)), tuple(range(2, 20)))
    assert np.isnan(rep.witness[2])


def test_ntp_suite_worst_minor_is_a_number_where_a_trial_has_one():
    # on 31 uniform nodes at scale 1e4, seed 36, the first trial's witness
    # determinant is NaN and five trials have one of 0.0: the suite reports
    # the least number, NaN only where no trial has one
    ns, report, trials = _scale_1e4_suite(np.linspace(0.0, 1.0, 31), 36)
    dets = [is_totally_positive(m).witness[2] for m in trials]
    assert np.isnan(dets[0]) and dets.count(0.0) == 5
    assert report.worst_minor == 0.0
    assert report == _reference_suite(ns, None, 8, 36)


def test_tp_reports_judge_each_matrix_of_a_stack_alone():
    # a same-shape stack of TP and non-TP matrices, one with entries above
    # 1e40, judged as given: no witness may leak from one matrix to another,
    # and each verdict is the exact oracle's
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
    reports = internals.stacked(stack)
    assert reports == [internals.stacked(m[None])[0] for m in stack]
    assert internals.stacked(stack[::-1]) == reports[::-1]
    verdicts = [report[0] for report in reports]
    assert verdicts == [exact_tp(m) for m in stack]
    assert verdicts == [True] * 4 + [False] * 4 + [True, True, False]


def _row_scaled(m):
    """m with each row whose largest entry exceeds one scaled down by a power
    of two, as is_totally_positive scales it, and the shifts."""
    row_max = np.max(np.abs(m), axis=-1)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    return np.ldexp(m, -shifts[..., None]), shifts


def _helix_trials(seed, trials):
    """The helix suite's first trials at seed, rebuilt from their draws."""
    return np.array(suite_trials(datasets.helix_node_set(), datasets.helix_weights(), trials, seed))


def _reduced(m, case):
    """A helix trial of the given case without the unit rows of its endpoints."""
    return m[case in ("left", "both"):len(m) - (case in ("right", "both"))]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_initial_minors_match_mpmath():
    # every initial minor of four helix suite trials at seed 1, one per
    # boundary case, without their unit rows, and of the corpus's 31-node
    # Vandermonde matrix, row-scaled, against a Neville elimination in
    # 120-digit mpmath: each error is within (k + 1) ulps of the minor's
    # scale (the product of its row norms, about 0.3 ulps at most), far
    # below the tolerance. On orders 4 and up the errors' geometric mean is
    # below np.linalg.det's on the same minors (about a third of it; their
    # largest is not, at about 2e-17 of the scale for either)
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    mats = [_reduced(m, case) for m, case in zip(_helix_trials(1, 4), BOUNDARY_CASES)]
    mats.append(_row_scaled(CORPUS["vandermonde-31"].build())[0])
    checked = expected = 0
    log_ratio = 0  # of the elimination's error to LAPACK's, summed over orders >= 4
    for m in mats:
        dets, scales = internals.initial_minors(m[None])
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
    dets, scales = internals.initial_minors(m[None])
    det, scale = dets[d, k, half, 0], scales[d, k, half, 0]
    assert abs(mpmath.mpf(float(det)) - reference) <= (k + 1) * np.finfo(float).eps * scale
    assert det + DEFAULT_REL_TOL * scale >= 0.0
    assert is_totally_positive(m).is_tp


def test_zero_rule_on_singular_and_structured_matrices():
    # Gasca & Pena's rule for zero pivots: 0/0 multipliers are 0, a nonzero
    # entry under a zero pivot fails, and a pivot after a zero one on its
    # diagonal must be >= -tolerance * its row's norm. I_9 + B (the corpus's
    # zero-rule-block-9), B = [[1, 0, 0], [0, 1, 0], [0, -1, 1]] in its last
    # block, has every initial minor >= 0 and an entry -1, so it fails by
    # the rule alone and keeps a witness of margin >= 0, as its transpose fails
    block = CORPUS["zero-rule-block-9"].build()
    dets = internals.initial_minors(block[None])[0]
    inside = np.add.outer(np.arange(9), np.arange(9)) < 9
    assert np.all(dets[:, :, 0][inside] >= 0.0) and np.all(dets[:, :, 1][inside] >= 0.0)
    rep = is_totally_positive(block)
    assert not rep.is_tp and rep.witness[2] >= 0.0
    assert not is_totally_positive(block.T).is_tp
    # a minor that ends on a zero pivot after nonzero ones is exactly 0: the
    # unit last row of a right-endpoint helix trial is zero in the columns of
    # the minors (d, k < n - 1) of A that end on it, and on a 9 x 9 matrix
    # whose rows 4 and 5 are equal the minors of A on rows d..5, d < 5
    right = _helix_trials(1, 3)[2]
    n = len(right)
    dets = internals.initial_minors(right[None])[0][:, :, 0, 0]
    assert all(dets[n - 1 - k, k] == 0.0 for k in range(n - 1))
    twin = np.random.default_rng(5).uniform(0.5, 1.5, (9, 9))
    twin[5] = twin[4]
    dets = internals.initial_minors(twin[None])[0][:, :, 0, 0]
    assert all(dets[d, k] == 0.0 for d in range(5) for k in range(5 - d, 9 - d))
    # an initial minor whose window has a row zero across its columns is
    # exactly 0, on the corpus's matrices with a unit last row, zero rows and
    # zero runs, each with its rows above one scaled
    zero_windows = 0
    for name in ("unit-last-12", "zero-runs-13x10", "zero-rows-10"):
        m = _row_scaled(CORPUS[name].build())[0]
        for (d, k, half), det in np.ndenumerate(internals.initial_minors(m[None])[0][..., 0]):
            rows, cols = (range(d, d + k + 1), range(k + 1))[::-1 if half else 1]
            if rows[-1] < len(m) and cols[-1] < m.shape[1] \
                    and not m[np.ix_(rows, cols)].any(axis=1).all():
                zero_windows += 1
                assert det == 0.0, (name, d, k, half)
    assert zero_windows > 0


def test_initial_minors_do_not_depend_on_the_stack():
    # a minor's bits are its own: helix stacks of 1, 4, 17 (a suite chunk)
    # and 68 trials are judged exactly as each trial alone, and every
    # initial minor's determinant and scale in a stack has the bits of its
    # one-matrix stack
    trials = _helix_trials(5, 68)
    alone = [internals.stacked(m[None])[0] for m in trials]
    for count in (1, 4, 17, 68):
        assert internals.stacked(trials[:count]) == alone[:count]
    stacked = internals.initial_minors(trials[:4])
    for t, m in enumerate(trials[:4]):
        assert all(_bits(a[..., t]) == _bits(b[..., 0])
                   for a, b in zip(stacked, internals.initial_minors(m[None])))


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
        merged, mw, firsts, factors = internals.merged(ns, w)
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


def test_ntp_suite_stacks_stay_within_gather_limit():
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
        shapes = [s.shape for s in internals.suite_stacks(ns, w, trials)]
        assert sum(t for t, _, _ in shapes) == trials
        assert all(shape[1:] == (ns.size, ns.size) for shape in shapes)
        assert all(held(t, ns.size) <= internals.GATHER_LIMIT or t == 1 for t, _, _ in shapes)
        if stacked == 1:
            assert {t for t, _, _ in shapes} == {1}
        else:
            assert shapes[0][0] == stacked
    # equal nodes are merged before the stack is built: n rows, one column a run
    ns = NodeSet(np.r_[0:5, 4:11].astype(float))
    assert {s.shape[1:] for s in internals.suite_stacks(ns, None, 40)} == {(12, 11)}


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
        assert peak <= 4 * 8 * internals.GATHER_LIMIT, (ns.size, peak)


def test_verdict_sweep_over_helix_uniform_and_repeated_node_suites():
    # every trial of 8-trial helix suites at seeds 0-39 passes, and each of
    # those trials with its first two columns swapped is rejected; 8-trial
    # suites on 12 to 64 uniform nodes pass at seeds 0 and 1; and the
    # witness of the suite on the CI's node set with a repeated node (the
    # corpus's ci-tp12-repeated) is in the original columns, where its
    # determinant is the mpmath one
    mpmath = pytest.importorskip("mpmath")
    ns, w = datasets.helix_node_set(), datasets.helix_weights()
    swap = [1, 0, *range(2, ns.size)]
    for seed in range(40):
        assert verify_ntp_suite(ns, w, 8, seed).passed
        assert not any(v[0] for v in internals.stacked(_helix_trials(seed, 8)[:, :, swap]))
    for n in (12, 16, 24, 32, 40, 48, 64):
        uniform = NodeSet(np.linspace(0.0, 1.0, n), None, n - 1)
        assert all(verify_ntp_suite(uniform, None, 8, seed).passed for seed in (0, 1))
    suite = CORPUS["ci-tp12-repeated"].build()
    report = verify_ntp_suite(*suite)
    rows, cols, det = report.worst_witness
    assert 5 not in cols  # the second of the equal nodes 4 and 5 is merged into the first
    trials = [t for t in range(40) if BOUNDARY_CASES[t % 4] == report.worst_case]
    exact = [mp_det(m[np.ix_(rows, cols)], 120) for m in suite_trials(*suite, trials)]
    assert any(det == pytest.approx(float(x), rel=1e-9, abs=1e-300) for x in exact)


def test_ntp_suite_rejects_span_too_narrow_to_draw_from():
    # [a0 + eps, an - eps] holds two doubles, and an interior trial needs
    # five distinct parameters: the draws give up instead of repeating forever
    ns = NodeSet([1e16, 1e16, 1e16, 1e16, 1e16 + 2])
    with pytest.raises(ValueError, match="no 5 distinct parameters drawn .* too narrow"):
        verify_ntp_suite(ns, None, trials=1)


def test_ntp_suite_draws_inside_a_domain_far_from_zero():
    # eps = 1e-6 * 1000 is below half an ulp of 1e16, so a0 + eps rounds to
    # a0; endpoint trials drew a0 next to the fixed a0 on 12 of these seeds.
    # Every trial passes: minors from closed forms and LAPACK failed 71 of
    # these 4000 trials, on 33 seeds, where the Laplace recursion fails none
    ns = NodeSet(FAR_FROM_ZERO)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            report = verify_ntp_suite(ns, None, trials=100, seed=seed)
            assert report.trials == 100 and report.passed, seed


def test_ntp_suite_stacks_have_no_entry_above_one():
    # the stacked verdict judges a stack as given, with no row scaling: rows
    # of the rational basis sum to one, and for 0 <= x <= s IEEE division
    # gives x / s <= 1, so no suite hands it an entry above one
    circle = datasets.circle_problem()
    for ns, w, trials, seed in ((circle.nodeset, circle.weights, 4000, 3),
                                (datasets.helix_node_set(), datasets.helix_weights(), 40, 0),
                                (NodeSet(np.linspace(0.0, 1.0, 64), None, 63), None, 8, 0),
                                (NodeSet(np.r_[0:5, 4:11].astype(float)), None, 40, 0),
                                (NodeSet(FAR_FROM_ZERO), None, 100, 0)):
        stacks = internals.suite_stacks(ns, w, trials, seed)
        assert stacks and max(np.abs(s).max() for s in stacks) <= 1.0, ns.size


@pytest.fixture
def no_lapack(monkeypatch):
    """Every function of np.linalg made to fail its caller."""
    def refuse(*args, **kwargs):
        raise AssertionError("the verdict reached np.linalg")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_corpus_public_results_are_pinned(row, monkeypatch, no_lapack):
    # each row's public result is its pin, with one rule over the whole
    # corpus: no row reaches np.linalg, and no warning escapes
    monkeypatch.setattr(totalpos, "DEFAULT_REL_TOL", row.tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if row.suite:
            got = verify_ntp_suite(*row.build())
        else:
            got = is_totally_positive(row.build())
            got = (got.is_tp, *got.witness[:2])
    assert got == row.expect


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_corpus_oracle_verdicts_are_pinned(row):
    assert oracle_verdict(row) == row.oracle


def test_corpus_contradictions_are_the_named_rows():
    # the rows where the library's verdict and the exact oracle's differ are
    # exactly those that name a ROADMAP item, as they behave today:
    # - tril-9 (item 19), TP: its unit first row is dropped, and on the
    #   rectangular rest the zero rule decides nothing;
    # - vandermonde-9-twin (item 19), TP with two equal columns: the zero
    #   rule meets the elimination's rounding residue. So it does on 44 of
    #   50 such matrices, and on none of the 50 they are made from;
    # - sharp-12, -20 and -31 (items 19 and 23): every trial rejected, while
    #   the oracle refutes none and finds 6 of sharp-12's 8 TP;
    # - span-1e290-9 (item 23): every trial rejected, at a span inside
    #   MAX_EXPONENT_SPAN, where the oracle finds each TP
    differ = {row.name for row in ROWS if library_verdict(row) != row.oracle}
    assert differ == {row.name for row in ROWS if row.item}
    bases = [vandermonde(9, seed) for seed in range(50)]
    assert [sum(not is_totally_positive(m).is_tp for m in mats)
            for mats in (bases, [twin(m, seed % 8) for seed, m in enumerate(bases)])] == [0, 44]
    ns = CORPUS["span-1e290-9"].build()[0]
    assert ns.scale * (ns.domain[1] - ns.domain[0]) < MAX_EXPONENT_SPAN
    assert [exact_tp(m) for m in suite_trials(*CORPUS["sharp-12"].build())].count(True) == 6

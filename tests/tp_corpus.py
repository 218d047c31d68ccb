"""The TP verdict's corpus: named matrices and NTP suites built in code from
fixed seeds, each with its public result pinned and the exact oracle's
verdict (oracles.exact_tp).

A matrix row pins is_totally_positive's (is_tp, rows, cols); a suite row
pins verify_ntp_suite's report, its worst minor to 1e-6 relative (its last
bits follow numpy's exp). oracle is exact_tp on the matrix, or folded over
the suite's judged trials, rebuilt from their draws: False if one is
refuted, else None if one is undecided or none is judged (a 64-node trial
costs the oracle about 10 s), else True. item names the ROADMAP items of a
row whose library verdict, folded alike, differs from the oracle's today;
the tests keep that set of rows exact.

To add a row, append it to ROWS with what the library and the oracle give
today (the tests print the library's result when a pin fails) and, if the
two differ, the item that would mend it.
"""

from dataclasses import dataclass
from unittest.mock import ANY

import numpy as np
import pytest

from gtbezier import NodeSet, NtpSuiteReport, datasets, rational_collocation_matrix
from gtbezier.totalpos import BOUNDARY_CASES, DEFAULT_REL_TOL
from oracles import GenVandermondeSpec, exact_tp, generalized_vandermonde, reference_draws


@dataclass(frozen=True)
class Row:
    """build() gives the matrix, or the suite's (node set, weights, trials, seed)."""

    name: str
    build: object
    expect: object
    oracle: bool | None
    item: str = ""
    tol: float = DEFAULT_REL_TOL
    judged: tuple | None = None  # the suite trials the oracle judges; None: all

    @property
    def suite(self) -> bool:
        return isinstance(self.expect, NtpSuiteReport)


def suite_trials(ns, w, trials, seed, which=None) -> list:
    """The collocation matrices of a suite's trials, or of those listed,
    each rebuilt from its own draws."""
    which = range(trials) if which is None else which
    cases = [BOUNDARY_CASES[t % len(BOUNDARY_CASES)] for t in which]
    return [rational_collocation_matrix(ns, w, params)
            for params in reference_draws(seed, which, cases, *ns.domain, ns.size)]


def _fold(verdicts):
    return False if False in verdicts else None if None in verdicts or not verdicts else True


def oracle_verdict(row):
    if not row.suite:
        return exact_tp(row.build(), row.tol)
    return _fold([exact_tp(m, row.tol) for m in suite_trials(*row.build(), row.judged)])


def library_verdict(row):
    """The pinned public verdict, folded over a suite's judged trials."""
    if not row.suite:
        return row.expect[0]
    failed = {t for t, _ in row.expect.failed_trials}
    judged = range(row.expect.trials) if row.judged is None else row.judged
    return _fold([t not in failed for t in judged])


def vandermonde(n, seed):
    """A TP generalized Vandermonde matrix: abscissas in [0.5, 2], exponents
    evenly spaced by a draw from [0.2, 1]."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.5, 2.0, n))
    return generalized_vandermonde(GenVandermondeSpec(t, np.arange(n) * rng.uniform(0.2, 1.0)))


def twin(m, j):
    """m with column j + 1 replaced by column j: TP when m is."""
    m = m.copy()
    m[:, j + 1] = m[:, j]
    return m


def _swapped(m):
    """m with its first two columns swapped: not TP when m is nonsingular TP."""
    return m[:, [1, 0, *range(2, m.shape[1])]]


def _scaled_up(m, seed):
    """m with each row scaled by a power of two up to 2**600."""
    return m * 2.0 ** np.random.default_rng(seed).uniform(0.0, 600.0, (len(m), 1))


def _random(shape, seed, low=-0.1, zeros=0.0):
    """Entries drawn from [low, 1], a share of them then made 0."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(low, 1.0, shape)
    m[rng.uniform(size=shape) < zeros] = 0.0
    return m


def _noise(shape, seed):
    """Entries from [-0.1, 1] times e**u, u from [-5, 5]."""
    return _random(shape, seed) * np.exp(10.0 * _random(shape, seed + 1, 0.0) - 5.0)


def _with_unit_rows(shape, first, last, seed):
    """A random positive matrix with first row first * e_0^T and last row
    last * e_(c-1)^T, each where nonzero."""
    m = _random(shape, seed, 0.0)
    if first:
        m[0] = first * np.eye(shape[1])[0]
    if last:
        m[-1] = last * np.eye(shape[1])[-1]
    return m


def _zero_runs(shape, seed):
    """A random positive matrix with three rows zero over a run of columns."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, shape)
    for q in rng.integers(shape[0], size=3):
        lo, hi = np.sort(rng.integers(shape[1] + 1, size=2))
        m[q, lo:hi] = 0.0
    return m


def _rows_like(shape, rows, seed, equal=False):
    """A random matrix from [0.5, 1.5] whose listed rows are zero, or, with
    equal, equal to the first of them."""
    m = np.random.default_rng(seed).uniform(0.5, 1.5, shape)
    m[rows] = m[rows[0]] if equal else 0.0
    return m


def _block():
    """I_9 plus -1 at (8, 7): every initial minor >= 0, yet not TP."""
    m = np.eye(9)
    m[8, 7] = -1.0
    return m


# a 4 x 4 minor of a far-from-zero suite trial, its first row zero
_ZERO_FIRST_ROW = [[0.0, 0.0, 0.0, 0.0],
                   [9.209994418286336e-29, 8.482399718478832e-57, 7.812285406079259e-85,
                    6.626692752914273e-141],
                   [0.0, 1.38760708e-315, 1.2440686266793217e-210, 1.0],
                   [0.0, 0.0, 8.457338737195012e-262, 1.0]]
FAR_FROM_ZERO = [1e16, 1e16 + 200, 1e16 + 400, 1e16 + 600, 1e16 + 1000]
_CI_TP = NodeSet([0.0, 0.8, 1.6, 2.5, 3.1], None, 1.5), np.array([1.0, 2.0, 3.0, 2.0, 1.0])


def _uniform(n, trials, seed=0):
    """A suite on n uniform nodes i / (n - 1) at scale n - 1."""
    return NodeSet(np.arange(n) / (n - 1), None, n - 1), None, trials, seed


def _sharp(n):
    """8 trials on n uniform nodes at scale 1e4: most entries underflow to 0."""
    return NodeSet(np.linspace(0.0, 1.0, n), None, 1e4), None, 8, 0


def _circle(trials, seed):
    circle = datasets.circle_problem()
    return circle.nodeset, circle.weights, trials, seed


def _helix(trials, seed):
    return datasets.helix_node_set(), datasets.helix_weights(), trials, seed


def _report(trials, rows, cols, det, case, failed=0):
    """A pinned report; failed: its first trials, all rejected."""
    return NtpSuiteReport(trials, (tuple(rows), tuple(cols), pytest.approx(det, rel=1e-6)), case,
                          tuple((t, BOUNDARY_CASES[t % 4]) for t in range(failed)))


def _R(*bounds):
    return tuple(range(*bounds))


_LEFT = (0,), (1,), 0.0, "left"  # the least minor of a suite with left-endpoint trials
ROWS = [
    # matrices up to EXHAUSTIVE_LIMIT rows and columns: every minor
    Row("random-8", lambda: _random((8, 8), 8, -1.0), (False, (0, 2, 4, 5, 7), (1, 2, 4, 5, 7)),
        False),
    Row("normal-7", lambda: np.random.default_rng(7).standard_normal((7, 7)),
        (False, (2, 4), (2, 6)), False),
    Row("zeros-8", lambda: _random((8, 8), 80, 0.0, 0.3), (False, (4, 5, 6), (1, 3, 4)), False),
    Row("random-6x8-row-scaled", lambda: _scaled_up(_random((6, 8), 68), 68),
        (False, (1, 5), (2, 4)), False),
    Row("singular-8", lambda: _rows_like((8, 8), [3, 5], 8, True), (False, (1, 2), (4, 6)), False),
    Row("zero-first-row-4", lambda: np.array(_ZERO_FIRST_ROW), (True, (0,), (0,)), True),
    Row("zero-rule-block-6", lambda: _block()[3:, 3:], (False, (5,), (4,)), False),
    # above: initial minors
    Row("identity-12", lambda: np.eye(12), (True, (1,), (0,)), True),
    Row("ones-9", lambda: np.ones((9, 9)), (True, (0, 1), (0, 1)), True),
    Row("antidiagonal-9", lambda: np.eye(9)[::-1], (False, (0,), (0,)), False),
    Row("antidiagonal-12", lambda: np.eye(12)[::-1], (False, (0,), (0,)), False),
    Row("zero-rule-block-9", _block, (False, (1,), (0,)), False),
    Row("zero-rows-10", lambda: _rows_like((10, 10), [2, 7], 8), (False, (0, 1), (0, 1)), False),
    Row("vandermonde-9", lambda: vandermonde(9, 19), (True, _R(4, 9), _R(5)), True),
    Row("vandermonde-12-tol0", lambda: vandermonde(12, 12), (True, _R(12), _R(12)), True, tol=0.0),
    Row("vandermonde-31", lambda: vandermonde(31, 31), (True, _R(18, 31), _R(13)), True),
    Row("vandermonde-20-row-scaled", lambda: _scaled_up(vandermonde(20, 20), 5),
        (True, _R(7), _R(13, 20)), True),
    Row("vandermonde-5x12", lambda: vandermonde(31, 31)[:5, 3:15], (True, _R(5), _R(7, 12)), True),
    Row("vandermonde-12x5", lambda: vandermonde(31, 31)[3:15, :5], (True, _R(7, 12), _R(5)), True),
    Row("vandermonde-12-swapped", lambda: _swapped(vandermonde(12, 12)), (False, (0, 1), (0, 1)),
        False),
    Row("noise-12", lambda: _noise((12, 12), 3), (False, (5, 6), (0, 1)), False),
    Row("noise-20-row-scaled", lambda: _scaled_up(_random((20, 20), 6), 7),
        (False, (13, 14), (0, 1)), False),
    Row("rect-2x9", lambda: _random((2, 9), 29), (False, (0, 1), (5, 6)), False),
    Row("rect-9x2", lambda: _random((9, 2), 92), (False, (7, 8), (0, 1)), False),
    Row("rect-1x20", lambda: _random((1, 20), 120), (False, (0,), (10,)), False),
    Row("unit-first-9", lambda: _with_unit_rows((9, 9), 1.0, 0.0, 9), (False, (4, 5), (0, 1)),
        False),
    Row("unit-last-12", lambda: _with_unit_rows((12, 12), 0.0, 3.0, 12), (False, (0, 1), (5, 6)),
        False),
    Row("unit-both-10x13-tol0", lambda: _with_unit_rows((10, 13), 0.5, 1.0, 10),
        (False, (1, 2), (3, 4)), False, tol=0.0),
    Row("unit-first-13x10-row-scaled",
        lambda: _scaled_up(_with_unit_rows((13, 10), 2.0, 0.0, 13), 3), (False, (1, 2), (5, 6)),
        False),
    Row("zero-runs-13x10", lambda: _zero_runs((13, 10), 31), (False, (6, 7), (0, 1)), False),
    Row("uniform-12-swapped", lambda: _swapped(suite_trials(*_uniform(12, 1))[0]),
        (False, (2, 3), (0, 1)), False),
    # matrices: known contradictions
    Row("tril-9", lambda: np.tril(np.ones((9, 9))), (False, (1,), (2,)), True, item="19"),
    Row("vandermonde-9-twin", lambda: twin(vandermonde(9, 19), 3), (False, _R(4, 9), _R(5)), True,
        item="19"),
    # suites: the CI's tp-check configurations
    Row("ci-tp5-1000", lambda: (*_CI_TP, 1000, 3), _report(1000, *_LEFT), True, judged=_R(200)),
    Row("ci-tp8", lambda: _uniform(8, 100), _report(100, *_LEFT), True, judged=(0, 1, 2, 3)),
    Row("ci-tp12", lambda: (NodeSet(np.arange(12.0)), None, 40, 0),
        _report(40, _R(7, 12), _R(5), 6.917262726239377e-71, "interior"), True, judged=_R(8)),
    Row("ci-tp12-repeated", lambda: (NodeSet(np.r_[0:5, 4:11].astype(float)), None, 40, 0),
        _report(40, (1, 2, 3), (9, 10, 11), 1.8017449069320502e-62, "left"), True, judged=_R(8)),
    Row("ci-tp-far-seed0", lambda: (NodeSet(FAR_FROM_ZERO), None, 100, 0),
        _report(100, (0,), (1,), 0.0, "interior"), True),
    Row("ci-tp-far-seed7", lambda: (NodeSet(FAR_FROM_ZERO), None, 100, 7),
        _report(100, (0,), (4,), 0.0, "interior"), True),
    # its least minor is one of many -0.0s and 0.0s left by underflow, so rounding picks it
    Row("ci-tp64", lambda: _uniform(64, 100), NtpSuiteReport(100, ANY, ANY, ()), None, judged=()),
    # suites: the examples, and uniform nodes up to the exhaustive limit
    Row("circle-40", lambda: _circle(40, 0), _report(40, *_LEFT), True),
    Row("circle-400", lambda: _circle(400, 20240809), _report(400, *_LEFT), True,
        judged=_R(100)),
    Row("helix-1-seed3", lambda: _helix(1, 3),
        _report(1, _R(6), _R(25, 31), 6.6785222871622534e-208, "interior"), True),
    Row("helix-8-seed3", lambda: _helix(8, 3), _report(8, _R(7), _R(24, 31), 0.0, "right"), True,
        judged=(2,)),
    *(Row(f"uniform-{n}", lambda n=n: _uniform(n, 40), _report(40, *_LEFT), True,
          judged=None if n < 7 else _R(8)) for n in range(3, 8)),
    # suites: known contradictions
    Row("sharp-12", lambda: _sharp(12), _report(8, _R(1, 5), _R(4), 0.0, "interior", 8), None,
        item="19, 23"),
    Row("sharp-20", lambda: _sharp(20), _report(8, _R(1, 9), _R(8), 0.0, "interior", 8), None,
        item="19, 23"),
    Row("sharp-31", lambda: _sharp(31), _report(8, _R(1, 12), _R(11), 0.0, "interior", 8), None,
        item="19, 23", judged=(0, 1)),
    Row("span-1e290-9", lambda: (NodeSet(np.arange(9.0), None, 1e290 / 8), None, 40, 0),
        _report(40, (1, 2, 3), (0, 1, 2), 0.0, "interior", 40), True, item="23"),
]
CORPUS = {row.name: row for row in ROWS}

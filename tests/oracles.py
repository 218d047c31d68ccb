"""Reference objects the tests check the library against: the paper's
generalized Vandermonde matrices, its raw basis and the power matrix of its
TP reduction, the classical Bernstein polynomials, the rational basis
rebuilt from its formula in mpmath (with the curve points contracted from
it there) and evaluated row-major in floats, the one exact TP oracle
(exact_tp: minors of the stored doubles in exact rationals, judged by the
library's documented tolerance rule), determinants and initial minors in
mpmath for accuracy checks, the NTP suite's parameter draws made one
np.random.default_rng([seed, trial]) at a time, and the PIA update taken
one step at a time in extended precision.

They serve only to check the library's basis values, curve points,
total-positivity verdicts, parameter draws and fit histories. pytest puts
this directory on sys.path, so tests import them with `from oracles import ...`.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul

import mpmath as mp
import numpy as np
import pytest

from gtbezier.basis import _grid, validate_weights
from gtbezier.totalpos import DEFAULT_REL_TOL


@dataclass(frozen=True)
class GenVandermondeSpec:
    """Positive abscissas t, strictly increasing real exponents alpha, and
    one above-diagonal sign per column after the first.

    A sign of +1 requires t_i > t_{i-1}; a sign of -1 relaxes that to >=.
    """

    t: np.ndarray
    alpha: np.ndarray
    signs: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if t.ndim != 1 or t.size < 2 or alpha.shape != t.shape:
            raise ValueError("t and alpha must be matching vectors of length >= 2")
        if np.any(t <= 0):
            raise ValueError("all t values must be positive")
        if np.any(np.diff(alpha) <= 0):
            raise ValueError("alpha must be strictly increasing")
        signs = self.signs
        if signs is None:
            signs = np.ones(t.size - 1)
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (t.size - 1,) or not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("signs must be n values from {-1, +1}")
        dt = np.diff(t)
        if np.any(dt[signs == 1.0] <= 0) or np.any(dt[signs == -1.0] < 0):
            raise ValueError("t ordering violates the sign chain")
        for name, arr in (("t", t), ("alpha", alpha), ("signs", signs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def generalized_vandermonde(spec: GenVandermondeSpec) -> np.ndarray:
    """Matrix with entry (i, j) = s_j * t_i**alpha_j above the diagonal and
    t_i**alpha_j on or below it; all signs +1 gives the plain power matrix."""
    powers = spec.t[:, None] ** spec.alpha[None, :]
    colsign = np.concatenate(([1.0], spec.signs))
    mat = powers.copy()
    above = np.triu_indices(spec.t.size, k=1)
    mat[above] = (powers * colsign[None, :])[above]
    return mat


def raw_log_basis(ns, ts) -> np.ndarray:
    """Log of every raw basis function beta_j = c_j * h0**e0 * h1**e1 at every
    parameter, one np.where per endpoint term: a zero exponent contributes
    log 1 = 0 whatever its base (0**0 == 1), so endpoint rows come out exact
    and -inf marks an exactly-zero value."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    a0, an = ns.domain
    e0, e1 = ns.scale * (ns.nodes - a0), ns.scale * (an - ns.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h0 = np.log(ns.scale * (ts - a0))[:, None]
        log_h1 = np.log(ns.scale * (an - ts))[:, None]
        term0 = np.where(e0[None, :] == 0.0, 0.0, e0[None, :] * log_h0)
        term1 = np.where(e1[None, :] == 0.0, 0.0, e1[None, :] * log_h1)
    return np.log(ns.coefficients)[None, :] + term0 + term1


def power_matrix(ns, params) -> np.ndarray:
    """The paper's power matrix x_i**(l*(a_j - a_0)), x_i = (t_i - a_0)/(a_n - t_i),
    with exact 0/1 rows at endpoint parameters (0**0 == 1 at a_0; at a_n the
    limit of the row divided by its last entry). It is TP exactly when the raw collocation
    matrix is: the two differ only by positive row and column scalings."""
    params = np.asarray(params, dtype=float)
    a0, an = ns.domain
    with np.errstate(divide="ignore"):  # x = inf at a_n; that row is replaced
        out = ((params - a0) / (an - params))[:, None] ** (ns.scale * (ns.nodes - a0))
    out[params == an] = ns.nodes == an
    return out


def bernstein_reference(n: int, i: int, x: float) -> float:
    """Classical Bernstein polynomial B_i^n(x)."""
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range 0..{n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return float(math.comb(n, i) * x**i * (1.0 - x) ** (n - i))


def _mp_basis_rows(ns, weights, ts):
    """Each parameter's weight-normalized basis values as mpmath numbers at the
    working precision, from the product formula
    c_j * w_j * h0(t)**h0(a_j) * h1(t)**h1(a_j) (a zero exponent contributes 1)."""
    l, a0, an = mp.mpf(ns.scale), mp.mpf(ns.nodes[0]), mp.mpf(ns.nodes[-1])
    for t in ts:
        h0, h1 = l * (mp.mpf(t) - a0), l * (an - mp.mpf(t))
        vals = []
        for a, c, w in zip(ns.nodes, ns.coefficients, weights):
            e0, e1 = l * (mp.mpf(a) - a0), l * (an - mp.mpf(a))
            v = mp.mpf(c) * mp.mpf(w)
            v *= mp.power(h0, e0) if e0 != 0 else 1
            v *= mp.power(h1, e1) if e1 != 0 else 1
            vals.append(v)
        total = mp.fsum(vals)
        yield [v / total for v in vals]


def mp_rational_basis(ns, weights, ts, dps: int = 50) -> np.ndarray:
    """Weight-normalized basis values at each parameter at dps digits,
    rounded to float once at the end."""
    with mp.workdps(dps):
        return np.array([[float(v) for v in row] for row in _mp_basis_rows(ns, weights, ts)])


def mp_curve_points(ns, weights, control, ts, dps: int = 50) -> np.ndarray:
    """Curve points sum_j B_j(t) P_j at each parameter: the basis of
    mp_rational_basis kept at dps digits and contracted with the (n + 1, d)
    controls by mp.fsum, rounded to float once at the end."""
    with mp.workdps(dps):
        cols = [[mp.mpf(x) for x in col] for col in np.asarray(control, dtype=float).T]
        return np.array([[float(mp.fsum(b * x for b, x in zip(row, col))) for col in cols]
                         for row in _mp_basis_rows(ns, weights, ts)], dtype=float)


# The largest absolute error against mp_curve_points over every call of
# tests/test_basis.py::test_curve_points_match_mpmath made by the earlier
# curve_points, which multiplied the whole row-major basis by the controls in
# one BLAS product: 1.0603e-14 (helix, 20001 points, 3-D), measured on x86-64
# with OpenBLAS. The blockwise contraction reads 1.046e-14 there, and
# 1.055e-14 with OPENBLAS_CORETYPE=Haswell.
CURVE_POINTS_ERROR = 1.06e-14


def row_major_basis(ns, weights, ts, node_order: bool = False) -> np.ndarray:
    """The rational basis evaluated parameter-major in one (N, n + 1) buffer,
    each step along the short rows: the softmax in
    s(t) = log(t - a0) - log(an - t) with exact endpoint rows. Each row is
    divided by its sum in numpy's pairwise order, or with node_order by its
    terms added one after another from the first node on, the order
    rational_basis_matrix states; see near_row_major for the first."""
    w = validate_weights(ns, weights)
    ts, (a0, an) = _grid(ns, ts), ns.domain
    with np.errstate(divide="ignore", invalid="ignore"):  # endpoint rows are replaced
        out = np.multiply.outer(np.log(ts - a0) - np.log(an - ts), ns.scale * (ns.nodes - a0))
    out[ts == a0] = np.where(ns.nodes == a0, 0.0, -np.inf)
    out[ts == an] = np.where(ns.nodes == an, 0.0, -np.inf)
    out += np.log(ns.coefficients) + np.log(w)  # one vector: c*w may overflow
    out -= np.max(out, axis=1, keepdims=True)
    np.exp(out, out=out)
    # at least 1: each row holds an exp(0)
    out /= functools.reduce(np.add, out.T)[:, None] if node_order else out.sum(axis=1)[:, None]
    return out


def near_row_major(got, want, size: int) -> bool:
    """Whether every value of got lies within size * eps * value of want, its
    row_major_basis on size = n + 1 nodes. Both divide the same exponentials
    by their row's sum, added in different orders: each sum of n + 1 terms
    is off by at most n eps / 2 relative and each division by eps / 2, to
    first order, so the two values differ by at most (n + 1) eps relative."""
    return bool(np.all(np.abs(got - want) <= size * np.finfo(float).eps * want))


# Draws of one trial's parameters before giving up, as in the NTP suite
MAX_DRAWS = 100


def draw_params(rng, case: str, a0: float, an: float, eps: float, count: int) -> np.ndarray:
    """Strictly increasing parameter sequence for one boundary case, drawn
    from rng by Generator.uniform."""
    fixed_low = case in ("left", "both")
    fixed_high = case in ("right", "both")
    free = count - int(fixed_low) - int(fixed_high)
    # far from zero a0 + eps can round back to a0 (an - eps to an), so the
    # draws stay at least one double inside the domain
    low = max(a0 + eps, math.nextafter(a0, math.inf))
    high = min(an - eps, math.nextafter(an, -math.inf))
    if low <= high:  # else no double lies strictly inside
        for _ in range(MAX_DRAWS):
            inner = np.sort(rng.uniform(low, high, size=free))
            if free < 2 or np.all(np.diff(inner) > 0):
                return np.concatenate([[a0]] * fixed_low + [inner] + [[an]] * fixed_high)
    raise ValueError(f"no {free} distinct parameters drawn in [{low!r}, {high!r}]; "
                     "the node span is too narrow")


# The exact TP oracle: a double is an integer times a power of two, so the
# minors of a float matrix are exact rationals, judged by the documented rule
# of gtbezier.totalpos: det >= -tol * (the product of its rows' norms).
ORACLE_MINORS = math.comb(18, 9) - 1  # most minors enumerated: a 9 x 9 matrix's 48619


def _squares(a, rows, cols):
    """The product over rows of a's squared norms over cols."""
    return math.prod(sum(a[i][j] ** 2 for j in cols) for i in rows)


def _within(det, squares, tol) -> bool:
    """det >= -tol * sqrt(squares()), exactly."""
    return det >= 0 or det * det <= Fraction(tol) ** 2 * squares()


def _laplace_minors(a, orders=None):
    """(rows, cols, det) of every minor of a list of exact rows up to the
    given order, order by order, each det expanded along its first row."""
    r, c = len(a), len(a[0])
    below = {(i,): {(j,): a[i][j] for j in range(c)} for i in range(r)}  # [rows][cols]: det
    yield from ((rows, cols, det) for rows, dets in below.items() for cols, det in dets.items())
    for k in range(2, min(r, c, orders or r) + 1):
        expansions = [(cols, [(col, cols[:j] + cols[j + 1:]) for j, col in enumerate(cols)])
                      for cols in combinations(range(c), k)]
        order = {}
        for rows in combinations(range(r), k):
            top, minors, dets = a[rows[0]], below[rows[1:]], order.setdefault(rows, {})
            for cols, terms in expansions:
                det = 0
                for j, (col, rest) in enumerate(terms):
                    if top[col]:
                        det += -top[col] * minors[rest] if j % 2 else top[col] * minors[rest]
                dets[cols] = det
                yield rows, cols, det
        below = order


def exact_det(matrix) -> Fraction:
    """The determinant of a square float matrix, exactly."""
    *_, (_, _, det) = _laplace_minors([[Fraction(x) for x in row] for row in matrix.tolist()])
    return det


def every_minor_passes(matrix, tol=DEFAULT_REL_TOL, orders=None) -> bool:
    """Whether every minor of a float matrix up to the given order passes
    the rule, exactly: on its rows times powers of two that make them
    integers, which scale a minor and its tolerance alike."""
    a = []
    for row in np.asarray(matrix, dtype=float).tolist():
        power = max(Fraction(x).denominator for x in row)
        a.append([int(Fraction(x) * power) for x in row])
    return all(det >= 0 or _within(det, lambda: _squares(a, rows, cols), tol)
               for rows, cols, det in _laplace_minors(a, orders))


def _reduced(m) -> np.ndarray:
    """m less every zero row and column, every row a positive multiple of the
    row above and every column equal to the one before: exact reductions, as
    a minor through such a line is 0 or one through its neighbour, its rows'
    norms multiplied alike."""
    def multiple(u, v):
        if ((u == 0) != (v == 0)).any() or (np.sign(u) != np.sign(v)).any():
            return False
        return len({Fraction(y) / Fraction(x) for x, y in zip(u, v) if x}) == 1

    while True:
        rows = [i for i in range(len(m)) if m[i].any() and not (i and multiple(m[i - 1], m[i]))]
        cols = [j for j in range(m.shape[1])
                if m[:, j].any() and not (j and (m[:, j] == m[:, j - 1]).all())]
        if (len(rows), len(cols)) == m.shape:
            return m
        m = m[np.ix_(rows, cols)]


def _initial_rule(m, tol):
    """The documented rule above EXHAUSTIVE_LIMIT, exactly: a first row c *
    e_0^T (last row c * e_(c-1)^T), c > 0, over another nonzero entry of its
    column is dropped; A and A^T take a Neville elimination (0 multipliers
    over a zero pivot), and where it meets the zero rule each initial minor,
    the product of its diagonal's pivots, must pass. False on a minor that
    fails, a refutation; else None if the zero rule fails; else True."""
    def unit(i, j):
        return m[i, j] > 0 and np.count_nonzero(m[i]) == 1 and np.count_nonzero(m[:, j]) > 1

    m = m[int(unit(0, 0)):len(m) - int(unit(-1, -1))]
    exact, verdict = [[Fraction(x) for x in row] for row in m.tolist()], True
    for x, half in ((exact, 0), ([list(col) for col in zip(*exact)], 1)):
        a, r = [row[:] for row in x], len(x)
        c = len(x[0]) if r else 0
        for s in range(min(r, c) - 1):
            for i in range(r - 1, s, -1):  # bottom up: each row less a multiple of the one above
                if a[i - 1][s]:
                    f = a[i][s] / a[i - 1][s]
                    a[i] = [p - f * q for p, q in zip(a[i], a[i - 1])]
        pivots = [[a[d + k][k] for k in range(min(r - d, c))] for d in range(r)]

        def ruled(d, k, pivot):  # no nonzero pivot under a zero one, and the floor after one
            if d and pivot and not pivots[d - 1][k]:
                return False
            return 0 not in pivots[d][:k] or _within(
                pivot, lambda: _squares(x, [d + k], range(k + 1)), tol)

        if not all(ruled(d, k, p) for d, run in enumerate(pivots) for k, p in enumerate(run)):
            verdict = None
            continue
        for d, run in enumerate(pivots):
            for k, det in enumerate(accumulate(run, mul)):
                rows, cols = (range(d, d + k + 1), range(k + 1))[::-1 if half else 1]
                if not _within(det, lambda: _squares(exact, rows, cols), tol):
                    return False
    return verdict


def exact_tp(matrix, tol=DEFAULT_REL_TOL):
    """The oracle's verdict on a float matrix: whether every minor of its
    exact reduction passes the rule, or, where that has more than
    ORACLE_MINORS, the documented initial-minor rule on it; where that is
    undecided, False on a failing minor of order 1 or 2, else None."""
    m = _reduced(np.asarray(matrix, dtype=float))
    if math.comb(sum(m.shape), len(m)) - 1 <= ORACLE_MINORS:
        return not m.size or every_minor_passes(m, tol)
    verdict = _initial_rule(m, tol)
    return False if verdict is None and not every_minor_passes(m, tol, 2) else verdict


def mp_det(window, dps: int = 50):
    """Determinant of a float matrix in dps-digit mpmath, by elimination with
    partial pivoting. mpmath.det is not used: it calls a matrix singular
    when a pivot is small against the matrix norm, as the pivots of
    row-scaled collocation windows are."""
    with mp.workdps(dps):
        a = [[mp.mpf(x) for x in row] for row in np.asarray(window, dtype=float).tolist()]
        det = mp.mpf(1)
        for s in range(len(a)):
            p = max(range(s, len(a)), key=lambda q: abs(a[q][s]))
            if not a[p][s]:
                return mp.mpf(0)
            if p != s:
                a[s], a[p] = a[p], a[s]
                det = -det
            pivot = a[s]
            det *= pivot[s]
            for row in a[s + 1:]:
                factor = row[s] / pivot[s]
                for c in range(s + 1, len(a)):
                    row[c] -= factor * pivot[c]
        return +det


def mp_initial_minors(matrix, dps: int = 120) -> list:
    """The initial minors of a float matrix on rows d..d+k and columns 0..k,
    as mpf at [d][k]: running products of the pivots of a Neville
    elimination without row exchanges in dps-digit mpmath (each row less the
    multiple of the row above that zeroes the column; 0 over a zero pivot).
    Those of the transpose are the minors on rows 0..k and columns d..d+k."""
    with mp.workdps(dps):
        a = [[mp.mpf(x) for x in row] for row in np.asarray(matrix, dtype=float).tolist()]
        rows, cols = len(a), len(a[0])
        for s in range(min(rows, cols)):
            for i in range(rows - 1, s, -1):
                factor = a[i][s] / a[i - 1][s] if a[i - 1][s] else 0
                for j in range(s + 1, cols):
                    a[i][j] -= factor * a[i - 1][j]
        minors = []
        for d in range(rows):
            product, run = mp.mpf(1), []
            for k in range(min(rows - d, cols)):
                product *= a[d + k][k]
                run.append(product)
            minors.append(run)
        return minors


def reference_draws(seed: int, trials, cases, a0: float, an: float, count: int) -> np.ndarray:
    """Parameters of NTP suite trials, one row each, drawn trial after trial,
    trial t of the given case from its own np.random.default_rng([seed, t])."""
    eps = 1e-6 * (an - a0)
    return np.array([draw_params(np.random.default_rng([seed, t]), case, a0, an, eps, count)
                     for t, case in zip(trials, cases)])


def pia_oracle(problem, steps: int):
    """The PIA update P^(k+1) = P^k + (P - C P^k) taken one step at a time in
    np.longdouble on the problem's float C, for exactly steps steps, with no
    stop rule or guard: (control, history), both np.longdouble arrays, the
    history holding each step's largest residual norm. Skips the calling
    test where np.longdouble is no wider than a double."""
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is a plain double here: no PIA oracle")
    c = problem.collocation.astype(np.longdouble)
    data = problem.data.astype(np.longdouble)
    control, history = data.copy(), np.empty(steps, np.longdouble)
    for k in range(steps):
        delta = data - c @ control
        history[k] = np.sqrt(np.max(np.sum(delta * delta, axis=1)))
        control += delta
    return control, history


def pia_errors(problem, control, history):
    """A PIA run's errors against pia_oracle for as many steps: the largest
    relative error of its (positive) history, and the largest control error
    relative to the largest control coordinate."""
    oracle_control, oracle_history = pia_oracle(problem, len(history))
    history_error = np.max(np.abs(np.asarray(history) - oracle_history) / oracle_history,
                           initial=0.0)
    control_error = np.max(np.abs(control - oracle_control)) / np.max(np.abs(oracle_control))
    return float(history_error), float(control_error)


# pia_errors of the float step loop, one update at a time, on the helix fit to
# 1e-4 (7938 steps), measured on x86-64 with OpenBLAS: the bounds of the helix
# fit's history (no less accurate) and controls (within twice this error)
HELIX_FIT_STEP_LOOP_ERRORS = (3.0e-12, 3.3e-14)

"""Output checks for the benchmark workloads.

Every checker returns a list of failure messages; an empty list means the
output passed. The reference values come from mpmath evaluations of the
basis formula itself,

    beta_j(t) = c_j * (l*(t - a_0))**(l*(a_j - a_0)) * (l*(a_n - t))**(l*(a_n - a_j)),

weighted by w_j and normalized to sum to one, or from properties the method
must have (partition of unity, endpoint interpolation, total positivity).
None of them calls gtbezier, so a fault in the library cannot hide itself.
"""

import csv
from itertools import combinations

import mpmath as mp
import numpy as np

MP_DPS = 50
# Initial minors of helix trials reach 1e-244 while the entries are O(1);
# computed at 60, 120 and 200 digits they agree to 8 digits.
MINOR_DPS = 120


def _mp_row(nodes, coeffs, scale, weights, t):
    """Weight-normalized basis values at t, in the current mpmath precision."""
    l = mp.mpf(float(scale))
    a0, an = mp.mpf(float(nodes[0])), mp.mpf(float(nodes[-1]))
    t = mp.mpf(float(t))
    h0, h1 = l * (t - a0), l * (an - t)
    vals = []
    for a, c, w in zip(nodes, coeffs, weights):
        a = mp.mpf(float(a))
        e0, e1 = l * (a - a0), l * (an - a)
        v = mp.mpf(float(c)) * mp.mpf(float(w))
        if e0 != 0:
            v *= mp.power(h0, e0)
        if e1 != 0:
            v *= mp.power(h1, e1)
        vals.append(v)
    total = mp.fsum(vals)
    return [v / total for v in vals]


def mp_rational_matrix(nodes, coeffs, scale, weights, params, dps=MP_DPS):
    """Rational collocation matrix rebuilt from the basis formula in mpmath."""
    with mp.workdps(dps):
        return mp.matrix([_mp_row(nodes, coeffs, scale, weights, t) for t in params])


def check_matrix_agrees(float_m, mp_m, atol=1e-12):
    """The float matrix agrees entrywise with its mpmath rebuild."""
    float_m = np.asarray(float_m, dtype=float)
    if float_m.shape != (mp_m.rows, mp_m.cols):
        return [f"matrix shape {float_m.shape} != ({mp_m.rows}, {mp_m.cols})"]
    ref = np.array([[float(mp_m[i, j]) for j in range(mp_m.cols)] for i in range(mp_m.rows)])
    err = float(np.max(np.abs(float_m - ref)))
    return [] if err <= atol else [f"matrix differs from mpmath by {err:.3e} > {atol:.0e}"]


def check_all_minors_nonnegative(mp_m, dps=MP_DPS):
    """Every minor of a small mpmath matrix is >= 0 (total positivity)."""
    bad = []
    with mp.workdps(dps):
        for k in range(1, min(mp_m.rows, mp_m.cols) + 1):
            for rows in combinations(range(mp_m.rows), k):
                for cols in combinations(range(mp_m.cols), k):
                    sub = mp.matrix([[mp_m[r, c] for c in cols] for r in rows])
                    det = mp.det(sub)
                    if det < 0:
                        bad.append(f"minor rows {rows} cols {cols} = {mp.nstr(det, 5)} < 0")
    return bad


def _leading_minors(mat):
    """All leading principal minors of a square matrix, by elimination
    without row exchanges; a zero pivot stops the elimination."""
    a = [list(row) for row in mat]
    m = len(a)
    minors, det = [], mp.mpf(1)
    for k in range(m):
        piv = a[k][k]
        det *= piv
        minors.append(det)
        if piv == 0:
            break
        for i in range(k + 1, len(a)):
            f = a[i][k] / piv
            if f:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, len(row_i)):
                    row_i[j] -= f * row_k[j]
    return minors


def initial_minors(mp_m, dps=MINOR_DPS):
    """The n*n initial minors of a square matrix (consecutive rows and
    columns, with the rows or the columns starting at index 0). Gasca and
    Pena: the matrix is strictly totally positive iff all of them are > 0.
    Returns {(last row, last column): minor}."""
    n = mp_m.rows
    with mp.workdps(dps):
        rows = [[mp.mpf(mp_m[i, j]) for j in range(n)] for i in range(n)]
        out = {}
        for d in range(n):
            # rows d.., columns 0..: minors ending at (d + k, k)
            for k, det in enumerate(_leading_minors([r[:n - d] for r in rows[d:]])):
                out[(d + k, k)] = det
            if d:
                # rows 0.., columns d..: minors ending at (k, d + k)
                for k, det in enumerate(_leading_minors([r[d:] for r in rows[:n - d]])):
                    out[(k, d + k)] = det
    return out


def check_initial_minors_positive(mp_m, dps=MINOR_DPS):
    minors = initial_minors(mp_m, dps)
    n = mp_m.rows
    bad = [f"initial minor ending at {pos} = {mp.nstr(v, 5)} <= 0"
           for pos, v in sorted(minors.items()) if not v > 0]
    if len(minors) != n * n:
        bad.append(f"only {len(minors)} of {n * n} initial minors computed")
    return bad


def check_rejects(verdict, what):
    """A TP verdict on a matrix that is not TP must say so."""
    return [] if not verdict.is_tp else [f"{what}: accepted as totally positive"]


def check_same_worst_minor(trial_witnesses, report):
    """The trials rebuilt from a suite's seed are the ones it judged: the
    witness with the smallest determinant over them, and its boundary case,
    are the report's. trial_witnesses lists (witness, case) per trial, a
    witness being (rows, columns, determinant)."""
    witness, case = min(trial_witnesses, key=lambda wc: wc[0][2])  # first of equals, as the suite
    if witness == report.worst_witness and case == report.worst_case:
        return []
    return [f"rebuilt trials give worst witness {witness} ({case}), "
            f"the suite reported {report.worst_witness} ({report.worst_case})"]


def swapped_columns(m):
    """The matrix with its first two columns exchanged; for a TP matrix with
    a positive 2x2 leading minor, that minor changes sign."""
    out = np.array(m, dtype=float)
    out[:, [0, 1]] = out[:, [1, 0]]
    return out


def read_csv(path):
    """Header and float rows of a CSV file written by the program."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def check_basis_table(values, rows_to_sample, nodes, coeffs, scale, weights, ts, atol=1e-12):
    """A basis table: non-negative rows summing to one, unit endpoint rows,
    sampled rows equal to the mpmath basis."""
    bad = []
    n = values.shape[1]
    if np.any(values < 0):
        bad.append(f"{int(np.sum(values < 0))} negative basis values")
    dev = np.abs(values.sum(axis=1) - 1.0)
    if not np.all(dev <= atol):
        bad.append(f"row {int(np.argmax(dev))} sums to 1 {float(dev.max()):+.3e}")
    unit = np.eye(n)
    if not np.array_equal(values[0], unit[0]):
        bad.append("first row is not e_0")
    if not np.array_equal(values[-1], unit[-1]):
        bad.append(f"last row is not e_{n - 1}")
    for r in rows_to_sample:
        with mp.workdps(MP_DPS):
            ref = np.array([float(v) for v in _mp_row(nodes, coeffs, scale, weights, ts[r])])
        err = float(np.max(np.abs(values[r] - ref)))
        if err > atol:
            bad.append(f"row {r} differs from mpmath by {err:.3e}")
    return bad


def mp_curve_points(nodes, coeffs, scale, weights, control, params):
    """Curve points sum_j B_j(t) P_j from the mpmath basis, as floats."""
    out = []
    with mp.workdps(MP_DPS):
        for t in params:
            row = _mp_row(nodes, coeffs, scale, weights, t)
            out.append([float(mp.fsum(b * mp.mpf(float(p[d])) for b, p in zip(row, control)))
                        for d in range(len(control[0]))])
    return np.array(out)


def check_points(points, ref, atol, what):
    points = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(points)):
        return [f"{what}: non-finite curve points"]
    err = float(np.max(np.abs(points - ref)))
    return [] if err <= atol else [f"{what}: differs from mpmath by {err:.3e} > {atol:.0e}"]


def check_fit_residual(residual, tol, slack):
    """The fitted curve meets the data to the requested tolerance."""
    if residual <= tol + slack:
        return []
    return [f"fit residual {residual:.3e} exceeds tol {tol:.0e} + slack {slack:.0e}"]


def fit_residual(nodes, coeffs, scale, weights, control, params, data):
    """Max Euclidean distance between the curve at the fit parameters, from
    the mpmath basis, and the data points."""
    pts = mp_curve_points(nodes, coeffs, scale, weights, control, params)
    return float(np.max(np.linalg.norm(pts - np.asarray(data, dtype=float), axis=1)))

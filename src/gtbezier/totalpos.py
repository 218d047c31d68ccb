"""Total-positivity machinery: collocation matrices and minor-enumeration TP checks.

A matrix is totally positive (TP) when every minor, of every order and
index selection, is non-negative; strictly totally positive (STP) when
every minor is positive. Verdicts here are numerical: a minor counts as
non-negative when it is >= -tol * scale, where scale is the product of
the Euclidean norms of the submatrix rows (a Hadamard-style bound), so
the tolerance tracks the wildly varying magnitude of the minors.

Minors are enumerated over a (T, r, c) stack of matrices, one pass per order:
is_totally_positive judges a stack of one, verify_ntp_suite chunks of trials.
Small matrices gather every minor into a (T, R, C, k, k) array; larger ones
read their consecutive k x k windows in place, as strided views of the stack.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, inf, nextafter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import NodeSet, _index, rational_basis_matrix, validate_params, validate_weights

# Exhaustive enumeration touches sum_k C(d,k)^2 minors; 8 keeps that instant.
# Larger matrices are checked on consecutive row/column windows only.
EXHAUSTIVE_LIMIT = 8
DEFAULT_REL_TOL = 1e-9

# Ceiling, in elements, on what one order materializes for a stack of trials
# in the NTP suite: the gathered minors of exhaustive enumeration, or the
# determinant grid of the window views. One 8-node trial alone gathers more
# and is judged by itself; up to 68 trials of 31 nodes share one stack.
_GATHER_LIMIT = 2**16

BOUNDARY_CASES = ("interior", "left", "right", "both")

# Draws of one trial's parameters before giving up. Uniform doubles tie only
# on a span of a few doubles, so no other span ever redraws.
_MAX_DRAWS = 100


def rational_collocation_matrix(ns: NodeSet, weights, params) -> np.ndarray:
    """Collocation matrix of the rational basis; every row sums to one."""
    return rational_basis_matrix(ns, weights, validate_params(ns, params))


def _det_stack(subs: np.ndarray) -> np.ndarray:
    """Determinants of an (..., k, k) stack: closed-form expansion for
    k <= 3, LAPACK LU with partial pivoting above."""
    k = subs.shape[-1]
    if k == 1:
        return subs[..., 0, 0].copy()
    if k == 2:
        return subs[..., 0, 0] * subs[..., 1, 1] - subs[..., 0, 1] * subs[..., 1, 0]
    if k == 3:
        return (
            subs[..., 0, 0] * (subs[..., 1, 1] * subs[..., 2, 2] - subs[..., 1, 2] * subs[..., 2, 1])
            - subs[..., 0, 1] * (subs[..., 1, 0] * subs[..., 2, 2] - subs[..., 1, 2] * subs[..., 2, 0])
            + subs[..., 0, 2] * (subs[..., 1, 0] * subs[..., 2, 1] - subs[..., 1, 1] * subs[..., 2, 0])
        )
    # LU of a singular minor can divide by a zero pivot and warn, though
    # the determinant it returns is the correct 0.0
    with np.errstate(divide="ignore"):
        return np.linalg.det(subs)


@lru_cache(maxsize=None)
def _index_sets(n: int, k: int, method: str) -> np.ndarray:
    """Every k-subset of range(n), or its n-k+1 runs of consecutive indices."""
    if method == "exhaustive":
        sets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    else:
        sets = np.arange(n - k + 1)[:, None] + np.arange(k)
    sets.setflags(write=False)  # cached and shared by every caller
    return sets


def _method(rows: int, cols: int) -> str:
    """Which minors a rows x cols matrix is judged on."""
    return "exhaustive" if max(rows, cols) <= EXHAUSTIVE_LIMIT else "contiguous"


@dataclass(frozen=True)
class TpReport:
    """Verdict of a total-positivity check.

    witness records the minor with the smallest acceptance margin as
    (row indices, column indices, determinant value). method names the
    minors that were checked: "exhaustive" (every minor, a TP certificate)
    or "contiguous" (consecutive windows only, an STP certificate whose TP
    verdict is advisory).
    """

    is_tp: bool
    is_stp: bool
    witness: tuple | None
    method: str


def is_totally_positive(m, tol: float = DEFAULT_REL_TOL) -> TpReport:
    """Check total positivity of a matrix by minor enumeration.

    Every minor up to order min(rows, cols) is enumerated when neither
    dimension exceeds EXHAUSTIVE_LIMIT; above it only minors on consecutive
    row/column windows are checked. A minor passes as non-negative when
    det >= -tol*scale and counts as strictly positive when det > tol*scale,
    with scale the product of the submatrix row norms.

    Rows whose largest entry exceeds one are first scaled down by an exact
    power of two, so that minors of large entries do not overflow; a
    positive row scaling keeps the sign of every minor and scales its
    tolerance alike. The witness is chosen and reported in the original
    scale, where its determinant may be infinite.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("matrix must be two-dimensional and non-empty")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if not 0 <= tol < inf:  # NaN fails too
        raise ValueError("tolerance must be finite and non-negative")
    return _tp_reports(m[None], tol)[0]


def _tp_reports(stack: np.ndarray, tol: float) -> list:
    """One TpReport per matrix of a finite (T, r, c) stack; each matrix is
    judged exactly as is_totally_positive judges it alone."""
    t, r, c = stack.shape
    row_max = np.max(np.abs(stack), axis=2)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    stack = np.ldexp(stack, -shifts[:, :, None])
    method = _method(r, c)
    sq = stack * stack
    all_ok, all_strict = np.ones(t, dtype=bool), np.ones(t, dtype=bool)
    worst_margin, witness = np.full(t, np.inf), [None] * t
    for k in range(1, min(r, c) + 1):
        rset, cset = _index_sets(r, k, method), _index_sets(c, k, method)
        if method == "exhaustive":
            subs = stack[:, rset[:, None, :, None], cset[None, :, None, :]]
        else:  # read-only views of every k x k window
            subs = sliding_window_view(stack, (k, k), axis=(1, 2))
        # each row's norm over a column set is summed once, not once per
        # minor it enters, and multiplied down each row set
        norms = np.sqrt(np.add.reduce(sq[:, :, cset], -1))
        scales = np.multiply.reduce(norms[:, rset], axis=2)
        unscale = shifts[:, rset].sum(axis=2)[:, :, None]
        dets = _det_stack(subs)
        margins = dets + tol * scales
        all_ok &= np.all(margins >= 0.0, axis=(1, 2))
        all_strict &= np.all(dets > tol * scales, axis=(1, 2))
        # the witness is chosen and reported in the original scale
        with np.errstate(over="ignore"):
            margins, dets = np.ldexp(margins, unscale), np.ldexp(dets, unscale)
        width = dets.shape[2]
        margins, dets = margins.reshape(t, -1), dets.reshape(t, -1)
        least = np.argmin(margins, axis=1)
        for j in np.flatnonzero(margins[np.arange(t), least] < worst_margin):
            i = least[j]
            worst_margin[j] = margins[j, i]
            row, col = divmod(int(i), width)
            witness[j] = (tuple(rset[row].tolist()), tuple(cset[col].tolist()), float(dets[j, i]))
    return [TpReport(bool(ok), bool(strict), w, method)
            for ok, strict, w in zip(all_ok, all_strict, witness)]


@dataclass(frozen=True)
class NtpSuiteReport:
    """Aggregate outcome of the randomized NTP verification trials."""

    trials: int
    failures: int
    worst_minor: float
    worst_witness: tuple | None
    worst_case: str | None
    failed_trials: tuple

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _draw_params(rng, case: str, a0: float, an: float, eps: float, count: int) -> np.ndarray:
    """Strictly increasing parameter sequence for one boundary case."""
    fixed_low = case in ("left", "both")
    fixed_high = case in ("right", "both")
    free = count - int(fixed_low) - int(fixed_high)
    # far from zero a0 + eps can round back to a0 (an - eps to an), so the
    # draws stay at least one double inside the domain
    low = max(a0 + eps, nextafter(a0, inf))
    high = min(an - eps, nextafter(an, -inf))
    if low <= high:  # else no double lies strictly inside
        for _ in range(_MAX_DRAWS):
            inner = np.sort(rng.uniform(low, high, size=free))
            if free < 2 or np.all(np.diff(inner) > 0):
                return np.concatenate([[a0]] * fixed_low + [inner] + [[an]] * fixed_high)
    raise ValueError(f"no {free} distinct parameters drawn in [{low!r}, {high!r}]; "
                     "the node span is too narrow")


def verify_ntp_suite(ns: NodeSet, weights, trials: int, seed: int = 0) -> NtpSuiteReport:
    """Randomized check that every rational collocation matrix is TP.

    Trials cycle through the four boundary cases (all-interior parameters,
    left endpoint touched, right endpoint touched, both touched), draw a
    strictly increasing parameter sequence, build the rational collocation
    matrix, and verify total positivity as is_totally_positive does.
    Deterministic for a fixed seed: each trial's RNG stream derives from
    (seed, trial index). Consecutive trials are judged as one (T, n, n)
    stack, built by one basis call, with T as large as keeps what every
    order materializes within _GATHER_LIMIT elements (at least one trial):
    C(n,k)^2 * k^2 gathered minor entries per trial when every minor is
    enumerated, the (n-k+1)^2 determinant grid of the window views above
    EXHAUSTIVE_LIMIT. Each trial's parameters, matrix and verdict are those
    it has alone; a node span too narrow to draw them from raises ValueError.
    """
    w = validate_weights(ns, weights)
    if _index(trials, "trials") < 1:
        raise ValueError("need at least one trial")
    a0, an = ns.domain
    eps = 1e-6 * (an - a0)
    n = ns.size
    if _method(n, n) == "exhaustive":
        per_trial = max((comb(n, k) * k) ** 2 for k in range(1, n + 1))
    else:
        per_trial = n * n  # the order-1 determinant grid is the largest
    chunk = max(1, _GATHER_LIMIT // per_trial)
    failed = []
    worst = (np.inf, None, None)  # (witness det, witness, case)
    for start in range(0, trials, chunk):
        chunk_trials = range(start, min(start + chunk, trials))
        cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in chunk_trials]
        params = np.array([_draw_params(np.random.default_rng([seed, trial]), case, a0, an, eps, n)
                           for trial, case in zip(chunk_trials, cases)])
        # one check per chunk of what validate_params checks per sequence; NaN fails too
        if not (np.all(np.diff(params, axis=1) > 0) and a0 <= params.min() and params.max() <= an):
            raise ValueError("drawn parameters must be strictly increasing inside the domain")
        stack = rational_basis_matrix(ns, w, params.ravel()).reshape(-1, n, n)
        for trial, case, report in zip(chunk_trials, cases, _tp_reports(stack, DEFAULT_REL_TOL)):
            if not report.is_tp:
                failed.append((trial, case))
            if report.witness is not None and report.witness[2] < worst[0]:
                worst = (report.witness[2], report.witness, case)
    return NtpSuiteReport(trials, len(failed), *worst, failed_trials=tuple(failed))

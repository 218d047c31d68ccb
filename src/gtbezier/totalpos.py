"""Total-positivity machinery: collocation matrices and minor-enumeration TP checks.

A matrix is totally positive (TP) when every minor is non-negative.
Verdicts here are numerical: a minor counts as non-negative when it is
>= -DEFAULT_REL_TOL * scale, scale the product of the Euclidean norms of the
submatrix rows (a Hadamard-style bound), so the tolerance tracks the wildly
varying magnitude of the minors.

Minors are judged over a (T, r, c) stack of matrices, one pass per order:
is_totally_positive judges a stack of one, verify_ntp_suite chunks of trials.
Small matrices gather every minor into a (T, R, C, k, k) array for _det_stack;
larger ones take each consecutive k x k window from _window_dets, a product of
pivots of one Neville elimination per column offset (Gasca & Pena 1992; backward
stable on TP matrices, Alonso, Gasca & Pena 1997), or, if not finite, 0 when a
row is zero across its columns and _det_stack's otherwise.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from ._draws import MAX_TRIALS, suite_params
from .basis import (NodeSet, _index, _reals, rational_basis_matrix, validate_params,
                    validate_weights)

# Exhaustive enumeration touches sum_k C(d,k)^2 minors; 8 keeps that instant.
# Larger matrices are checked on consecutive row/column windows only.
EXHAUSTIVE_LIMIT = 8
DEFAULT_REL_TOL = 1e-9

# Ceiling, in elements, on what a stack of NTP suite trials holds: one order's
# gathered minors of exhaustive enumeration, or every order's determinant grid
# of the windows, whose Neville passes hold a quarter of it in each of their
# three buffers. One 8- or 64-node trial holds more and is judged alone; up to 6
# trials of 31 nodes share one stack.
_GATHER_LIMIT = 2**16

BOUNDARY_CASES = ("interior", "left", "right", "both")


def rational_collocation_matrix(ns: NodeSet, weights, params) -> np.ndarray:
    """Collocation matrix of the rational basis; every row sums to one."""
    return rational_basis_matrix(ns, weights, validate_params(ns, params))


def _det_stack(subs: np.ndarray) -> np.ndarray:
    """Determinants of an (..., k, k) stack: closed-form expansion for
    k <= 3, LAPACK LU with partial pivoting above. The minors of exhaustive
    enumeration, and the windows _window_dets cannot eliminate."""
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


def _window_dets(stack: np.ndarray) -> list:
    """Determinants of the consecutive k x k windows of a (T, r, c) stack,
    one (T, r-k+1, c-k+1) grid per order k = 1 .. min(r, c).

    A Neville elimination without row exchanges of the columns from j on
    (step s subtracts from each row below row s a multiple of the row above
    it) leaves on row i+k-1 of column k-1 the pivot W_k(i, j) / W_{k-1}(i, j)
    (Gasca & Pena 1992), so one elimination per column offset gives each of
    its windows as a product of pivots, backward stable on a TP matrix
    (Alonso, Gasca & Pena 1997). The (trial, offset) pairs are eliminated
    together, the batch on the last axis, in passes whose gathered columns,
    work array and update hold at most _GATHER_LIMIT // 4 elements each.
    Pivots are multiplied as frexp mantissas with their exponents summed and
    ldexp'd once, so no partial product overflows or underflows, and a
    window's bits depend on its entries alone. A step divides by pivots of the
    windows above; one by a zero pivot leaves its row non-finite in every
    later column, up to each dependent window's own last pivot (a zero pivot
    after finite ones is its computed determinant, 0). A window whose product
    turns non-finite is +0.0 if a row is zero across its columns, and else
    comes from _det_stack, as with equal columns; the stack is never written.
    """
    t, r, c = stack.shape
    orders = np.arange(1, min(r, c) + 1)
    # pairs offset-major, so those whose offset reaches order k come first
    # and a pass's widths are alike; an offset's columns past its width, or
    # past r, never reach a pivot
    col, trial = np.divmod(np.arange(c * t), t)
    widths = np.minimum(r, c - col)
    pivots = [np.empty(((c - k + 1) * t, r - k + 1)) for k in orders]
    limit = max(_GATHER_LIMIT // 4, r * orders.size)
    work, prod = np.empty(limit), np.empty(limit)
    lo = 0
    while lo < col.size:
        w = widths[lo]
        hi = min(lo + limit // (r * w), col.size)
        b = hi - lo
        a = work[:r * w * b].reshape(r, w, b)
        # a narrower offset's padding repeats the last column
        cols = np.minimum(col[lo:hi] + np.arange(w)[:, None], c - 1)
        a[...] = stack[trial[lo:hi], :, cols].transpose(2, 0, 1)
        with np.errstate(all="ignore"):  # what a zero pivot spoils is replaced
            for s in range(w - 1):
                mult = a[s + 1:, s] / a[s:-1, s]
                update = prod[:(r - s - 1) * (w - s - 1) * b].reshape(r - s - 1, w - s - 1, b)
                np.multiply(mult[:, None], a[s:-1, s + 1:], out=update)
                a[s + 1:, s + 1:] -= update
        # the pivot on row k-1+i of column k-1 is window (i, j)'s k-th
        for k in range(1, w + 1):
            pivots[k - 1][lo:hi] = a[k - 1:, k - 1, :len(pivots[k - 1]) - lo].T
        lo = hi
    work = prod = a = update = None  # the passes' buffers are not held through the products
    grids = [p.reshape(c - k + 1, t, r - k + 1).transpose(1, 2, 0) for k, p in zip(orders, pivots)]
    # each entry's run of zeros rightward, and the longest over a window's rows
    runs = np.minimum.accumulate(np.where(stack != 0.0, np.arange(c), c)[..., ::-1], axis=2)
    runs = runs[..., ::-1] - np.arange(c)
    longest = np.zeros((t, r + 1, c), runs.dtype)
    # window (i, j) of order k extends that of order k-1, a grid one row and column larger
    last_mant, last_expo = np.ones((t, r + 1, c + 1)), np.zeros((t, r + 1, c + 1), np.intc)
    for k, grid in zip(orders, grids):
        longest = np.maximum(longest[:, :-1], runs[:, k - 1:])
        with np.errstate(all="ignore"):  # what is not finite is replaced below
            mant, expo = np.frexp(grid)
            mant *= last_mant[:, :-1, :-1]
            expo += last_expo[:, :-1, :-1]
            np.ldexp(mant, expo, out=grid)
        bad = ~np.isfinite(grid)
        zero_row = bad & (longest[:, :, :c - k + 1] >= k)  # exactly 0
        grid[zero_row] = 0.0
        bad ^= zero_row
        if bad.any():
            corner = np.ravel_multi_index(np.nonzero(bad), stack.shape)
            grid[bad] = _det_stack(np.take(stack, corner[:, None, None]
                                           + np.arange(k)[:, None] * c + np.arange(k)))
        last_mant, last_expo = mant, expo
    return grids


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

    witness is the minor with the smallest acceptance margin, as (row
    indices, column indices, determinant value); every report has one.
    """

    is_tp: bool
    witness: tuple


def is_totally_positive(m) -> TpReport:
    """Check total positivity of a matrix by its minors.

    Every minor up to order min(rows, cols) is enumerated when neither
    dimension exceeds EXHAUSTIVE_LIMIT; above it only minors on consecutive
    row/column windows are checked, so the verdict is advisory. Those
    windows are products of pivots of one Neville elimination per column
    offset, backward stable on a TP matrix (off TP matrices it has no growth
    bound; errors up to 4.7e-13 of the scale below were measured); a window
    goes to LAPACK only when its elimination turns non-finite, as a division
    by a zero pivot makes it, and no row is zero across its columns, which
    makes it 0. A minor passes as non-negative when det >=
    -DEFAULT_REL_TOL * scale, scale the product of the submatrix row norms.

    Rows whose largest entry exceeds one are first scaled down by an exact
    power of two, so that minors of large entries do not overflow; a
    positive row scaling keeps the sign of every minor and scales its
    tolerance alike. The witness is chosen and reported in the original
    scale, where its determinant may be infinite.
    """
    m = _reals(m, "matrix", 2)
    if m.size == 0:
        raise ValueError("matrix must not be empty")
    return _tp_reports(m[None])[0]


def _tp_reports(stack: np.ndarray) -> list:
    """One TpReport per matrix of a finite (T, r, c) stack; each matrix is
    judged exactly as is_totally_positive judges it alone."""
    t, r, c = stack.shape
    row_max = np.max(np.abs(stack), axis=2)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    scaled = shifts.any()  # if not, the stack is judged as given and never written
    if scaled:
        stack = np.ldexp(stack, -shifts[:, :, None])
    method = _method(r, c)
    window_dets = _window_dets(stack) if method == "contiguous" else None
    sq = stack * stack
    all_ok, witness = np.ones(t, dtype=bool), [None] * t
    worst_margin = np.full(t, np.nan)  # so order 1 sets every witness, margins of inf too
    for k in range(1, min(r, c) + 1):
        rset, cset = _index_sets(r, k, method), _index_sets(c, k, method)
        # each row's norm over a column set is summed once, not once per
        # minor it enters, and multiplied down each row set
        norms = np.sqrt(np.add.reduce(sq[:, :, cset], -1))
        scales = np.multiply.reduce(norms[:, rset], axis=2)
        if window_dets is None:
            dets = _det_stack(stack[:, rset[:, None, :, None], cset[None, :, None, :]])
        else:
            dets = window_dets[k - 1]
        margins = dets + DEFAULT_REL_TOL * scales
        all_ok &= np.all(margins >= 0.0, axis=(1, 2))
        if scaled:  # the witness is chosen and reported in the original scale
            unscale = shifts[:, rset].sum(axis=2)[:, :, None]
            with np.errstate(over="ignore"):
                margins, dets = np.ldexp(margins, unscale), np.ldexp(dets, unscale)
        width = dets.shape[2]
        margins, dets = margins.reshape(t, -1), dets.reshape(t, -1)
        least = np.argmin(margins, axis=1)
        for j in np.flatnonzero(~(margins[np.arange(t), least] >= worst_margin)):
            i = least[j]
            worst_margin[j] = margins[j, i]
            row, col = divmod(int(i), width)
            witness[j] = (tuple(rset[row].tolist()), tuple(cset[col].tolist()), float(dets[j, i]))
    return [TpReport(bool(ok), w) for ok, w in zip(all_ok, witness)]


@dataclass(frozen=True)
class NtpSuiteReport:
    """Outcome of the randomized NTP trials: the least-determinant witness,
    its trial's boundary case, and the (trial, case) of each trial not TP."""

    trials: int
    worst_witness: tuple
    worst_case: str
    failed_trials: tuple

    @property
    def failures(self) -> int:
        return len(self.failed_trials)

    @property
    def worst_minor(self) -> float:
        return self.worst_witness[2]

    @property
    def passed(self) -> bool:
        return not self.failed_trials


def verify_ntp_suite(ns: NodeSet, weights, trials: int, seed: int = 0) -> NtpSuiteReport:
    """Randomized check that every rational collocation matrix is TP.

    Trials cycle through the four boundary cases (all-interior parameters,
    left endpoint touched, right endpoint touched, both touched), draw a
    strictly increasing parameter sequence, build the rational collocation
    matrix, and verify total positivity as is_totally_positive does.
    Deterministic for a fixed seed, a non-negative integer: each trial draws
    from the stream of np.random.default_rng([seed, trial]), and a chunk's
    draws are computed in one pass that equals those streams bit for bit.
    trials is at most MAX_TRIALS = 2**32, so each trial index is one word.
    Consecutive trials are judged as one (T, n, n) stack, built by one basis
    call, with T as large as keeps what the verdict holds at once within
    _GATHER_LIMIT elements (at least one trial): per trial, the largest
    order's C(n,k)^2 * k^2 gathered entries when every minor is enumerated,
    or the (n-k+1)^2 determinant grids of all orders together above
    EXHAUSTIVE_LIMIT. Each trial's parameters, matrix and verdict are those
    it has alone; a node span too narrow to draw them from raises
    ValueError. Of equal worst witnesses the report keeps the first.
    """
    w = validate_weights(ns, weights)
    trials = _index(trials, "trials", 1, MAX_TRIALS)
    seed = _index(seed, "seed")
    a0, an = ns.domain
    n = ns.size
    if _method(n, n) == "exhaustive":
        per_trial = max((comb(n, k) * k) ** 2 for k in range(1, n + 1))
    else:
        per_trial = sum(k * k for k in range(1, n + 1))  # every order's grid is held
    chunk = max(1, _GATHER_LIMIT // per_trial)
    failed, worst = [], None  # worst: (witness, case), the first of least determinant
    for start in range(0, trials, chunk):
        chunk_trials = range(start, min(start + chunk, trials))
        cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in chunk_trials]
        params = suite_params(seed, chunk_trials, cases, a0, an, n)
        stack = rational_basis_matrix(ns, w, params.ravel()).reshape(-1, n, n)
        for trial, case, report in zip(chunk_trials, cases, _tp_reports(stack)):
            if not report.is_tp:
                failed.append((trial, case))
            if worst is None or report.witness[2] < worst[0][2]:
                worst = report.witness, case
    return NtpSuiteReport(trials, *worst, tuple(failed))

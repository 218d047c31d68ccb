"""Total-positivity machinery: collocation matrices and TP verdicts.

A matrix is totally positive (TP) when every minor is non-negative. Here a
minor counts as non-negative when it is >= -DEFAULT_REL_TOL * scale, scale the
product of its rows' Euclidean norms (a Hadamard-style bound, which tracks the
minors' wildly varying magnitude). Matrices are judged as (T, r, c) stacks, on
every minor by Laplace expansion up to EXHAUSTIVE_LIMIT rows and columns, on
initial minors by Neville elimination above: no verdict reaches LAPACK. A stack
is judged as given; rows are scaled only in is_totally_positive, the one entry
for outside matrices, since the NTP suite's rows sum to one.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from ._draws import MAX_TRIALS, suite_params
from .basis import (NodeSet, _index, _reals, rational_basis_matrix, validate_params,
                    validate_weights)

# Every minor, sum_k C(d,k)^2 of them, each from k of order k - 1; 8 keeps that instant.
EXHAUSTIVE_LIMIT = 8
DEFAULT_REL_TOL = 1e-9

# Ceiling, in elements, on an NTP suite stack: one order's 2k gathered values a k-minor, or
# 4 * n * n a trial above EXHAUSTIVE_LIMIT, where the initial minors' verdict holds about 3x that
_GATHER_LIMIT = 2**16

BOUNDARY_CASES = ("interior", "left", "right", "both")


def rational_collocation_matrix(ns: NodeSet, weights, params) -> np.ndarray:
    """Collocation matrix of the rational basis; every row sums to one."""
    return rational_basis_matrix(ns, weights, validate_params(ns, params))


def _initial_minors(stack: np.ndarray) -> tuple:
    """Initial minors of a (T, r, c) stack as (m, o, 2, T) arrays,
    m = max(r, c), o = min(r, c): determinants, scales, the pivots that end
    them and those pivots' row norms over their columns (of A or A^T);
    [d, k, 0] is the minor on rows d..d+k and columns 0..k, [d, k, 1] that on
    rows 0..k and columns d..d+k. A and A^T, zero-padded to m x m side by side
    on the last axis, take one Neville elimination without row exchanges (0
    multipliers over zero pivots), whose pivot at (d+k, k) is [d, k] /
    [d+1, k-1] (Gasca & Pena 1992): [d, k] is its diagonal's pivot product,
    as frexp mantissas and summed exponents. Scales are never divided back:
    a zero row norm would make the quotient NaN."""
    t, r, c = stack.shape
    m, o = max(r, c), min(r, c)
    a = np.zeros((m, m, 2 * t))  # a copy: the stack is never written
    a[:r, :c, :t] = stack.transpose(1, 2, 0)
    a[:c, :r, t:] = stack.transpose(2, 1, 0)
    sq = stack.transpose(1, 2, 0) ** 2
    norms = np.sqrt(np.add.accumulate(sq, axis=1))  # row i's over columns 0..j
    scales = np.ones((m, o, 2, t))
    # run[d, j]: rows d..d+s's norms over columns 0..s+j; window[i, d]: row i's squares, d..d+s
    run, window = norms.copy(), sq[:o].copy()
    with np.errstate(all="ignore"):  # past a zero pivot, mult is replaced
        for s in range(o):
            scales[:r - s, s, 0] = run[:, 0]
            scales[:c - s, s, 1] = np.multiply.reduce(np.sqrt(window[:s + 1]), axis=0)
            run[:-1, 1:] *= norms[s + 1:, s + 1:]
            window[:, :-1] += sq[:o, s + 1:]
            run, window = run[:-1, 1:], window[:, :-1]
            mult = a[s + 1:, s] / a[s:-1, s]
            mult[a[s:-1, s] == 0.0] = 0.0
            a[s + 1:, s + 1:] -= mult[:, None] * a[s:-1, s + 1:]
    d, k = np.arange(m)[:, None], np.arange(o)
    pivots = a[np.minimum(d + k, m - 1), k].reshape(m, o, 2, t)
    a = run = window = None  # freed before the products: (m, o, 2, T) arrays follow
    lines = np.empty_like(pivots)
    lines[:, :, 0] = norms[np.minimum(d + k, r - 1), k]
    lines[:, :, 1] = np.sqrt(np.add.accumulate(sq, axis=0))[k, np.minimum(d + k, c - 1)]
    mant, expo = np.frexp(pivots)
    np.multiply.accumulate(mant, axis=1, out=mant)
    np.add.accumulate(expo, axis=1, out=expo)
    with np.errstate(over="ignore"):  # only after a pivot overflowed
        return np.ldexp(mant, expo, out=mant), scales, pivots, lines


def _initial_reports(stack: np.ndarray) -> list:
    """_tp_reports above EXHAUSTIVE_LIMIT."""
    t, r, c = stack.shape
    m, o = max(r, c), min(r, c)
    first = (stack[:, 0, 0] > 0.0) & ~stack[:, 0, 1:].any(axis=1) & stack[:, 1:, 0].any(axis=1)
    last = (stack[:, -1, -1] > 0.0) & ~stack[:, -1, :-1].any(axis=1) & stack[:, :-1, -1].any(axis=1)
    if first.any():  # a dropped first row moves last: the stack keeps its shape
        order = (np.arange(r) + first[:, None]) % r
        stack = np.take_along_axis(stack, order[:, :, None], 1)
    dets, scales, pivots, pivot_norms = _initial_minors(stack)
    # minors on a dropped row or off the matrix are not judged
    dk, k, kept = np.add.outer(np.arange(m), np.arange(o)), np.arange(o), r - first - last
    masked = np.stack([dk[..., None] >= kept, (k[:, None] >= kept) | (dk >= c)[..., None]], 2)
    # the zero rule: no nonzero pivot under a zero one, none after one below its floor
    zero = pivots == 0.0
    wrong = np.pad(zero[:-1] & ~zero[1:], ((1, 0), (0, 0), (0, 0), (0, 0)))
    pivot_norms *= -DEFAULT_REL_TOL  # a floor from a zero pivot on, which passes its own
    wrong |= np.logical_or.accumulate(zero, axis=1) & (pivots < pivot_norms)
    margins = np.add(dets, np.multiply(DEFAULT_REL_TOL, scales, out=scales), out=scales)
    all_ok = np.all((margins >= 0.0) & ~wrong | masked, axis=(0, 1, 2))
    margins, dets = margins.reshape(-1, t), dets.reshape(-1, t)
    margins[masked.reshape(-1, t)] = np.inf  # above every judged one; the first is judged
    least = np.argmin(margins, axis=0)
    i, n, half = np.unravel_index(least, (m, o, 2))
    rows, cols, dets = first + i * (1 - half), i * half, dets[least, np.arange(t)]
    return [TpReport(bool(ok), (tuple(range(row, row + q + 1)), tuple(range(col, col + q + 1)), det))
            for ok, row, col, q, det in zip(all_ok, *(x.tolist() for x in (rows, cols, n, dets)))]


@lru_cache(maxsize=None)
def _index_sets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n)."""
    sets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    sets.setflags(write=False)  # cached and shared by every caller
    return sets


@lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """[s, j]: the index in _index_sets(n, k - 1) of set s of _index_sets(n, k) less its j-th."""
    index = {s: i for i, s in enumerate(combinations(range(n), k - 1))}
    drop = np.array([[index[s[:j] + s[j + 1:]] for j in range(k)]
                     for s in combinations(range(n), k)], dtype=np.intp)
    drop.setflags(write=False)
    return drop


def _laplace(stack: np.ndarray, minors: np.ndarray, k: int) -> np.ndarray:
    """Order-k minors of a (T, r, c) stack from those of order k - 1, along each first row."""
    r, c = stack.shape[1:]
    terms = stack[:, _index_sets(r, k)[:, 0, None, None], _index_sets(c, k)]
    terms *= minors[:, _subsets(r, k)[:, 0, None, None], _subsets(c, k)]
    dets = terms[..., 0].copy()
    for j in range(1, k):  # left to right from the first term (-0.0 stays): k <= 3's closed forms
        (np.subtract if j % 2 else np.add)(dets, terms[..., j], out=dets)
    return dets


@dataclass(frozen=True)
class TpReport:
    """Verdict of a total-positivity check: witness is the minor of least
    acceptance margin, as (row indices, column indices, determinant value)."""

    is_tp: bool
    witness: tuple


def is_totally_positive(m) -> TpReport:
    """Check total positivity of a matrix by its minors.

    A minor passes when det >= -DEFAULT_REL_TOL * scale, scale the product of
    its row norms. Up to EXHAUSTIVE_LIMIT rows and columns every minor is
    judged, by Laplace expansion, within 800 eps of its scale to first order.
    Above, a first row c * e_0^T (last row c * e_(c-1)^T), c > 0, whose column
    has another nonzero entry is dropped, an exact reduction (a minor through
    it is 0 or c times one without it), and the rest is judged on its initial
    minors, on consecutive rows and columns with row 0 or column 0.
    All positive make a matrix strictly TP (Gasca & Pena 1992): the verdict
    certifies that up to the rounding of two eliminations, backward stable on
    a TP matrix (Alonso, Gasca & Pena 1997); a minor within the tolerance is
    accepted, not certified. Zero pivots follow Gasca & Pena's rule: 0/0
    multipliers count as 0, a nonzero entry under a zero pivot fails, and
    every multiplier must be >= 0, so a pivot after a zero one on its diagonal
    (past which the minors are 0) must be >= -DEFAULT_REL_TOL times its row's
    norm over its columns. On a singular or rectangular matrix with a zero
    initial minor, the remainder of a dropped row included, it certifies
    nothing and can reject a TP matrix (a zero row over a nonzero one, the
    rounding residue that equal columns leave under a zero pivot, or the
    nonsingular np.tril(np.ones((9, 9))), whose unit first row is dropped and
    whose remainder fails on minor ((1,), (2,))). A failure by this rule alone
    has a witness of margin >= 0; an overflowing pivot, as no TP matrix has,
    gives non-finite ones.

    Rows whose largest entry exceeds one are first scaled down by an exact
    power of two, here and nowhere else, so that minors do not overflow;
    that keeps their signs and scales their tolerances alike. The verdict
    and the witness, the minor of least margin, are those of the scaled
    matrix; only the witness's determinant is mapped back to the original
    scale, where it may be infinite.
    """
    m = _reals(m, "matrix", 2)
    if m.size == 0:
        raise ValueError("matrix must not be empty")
    row_max = np.max(np.abs(m), axis=1)
    shifts = np.where(row_max > 1.0, np.frexp(row_max)[1], 0)
    report = _tp_reports(np.ldexp(m, -shifts[:, None])[None])[0]
    rows, cols, det = report.witness
    with np.errstate(over="ignore"):
        return TpReport(report.is_tp, (rows, cols, float(np.ldexp(det, shifts[list(rows)].sum()))))


def _tp_reports(stack: np.ndarray) -> list:
    """One TpReport per matrix of a finite (T, r, c) stack, judged as given;
    a matrix with no entry above one in magnitude is judged exactly as
    is_totally_positive judges it alone."""
    t, r, c = stack.shape
    if max(r, c) > EXHAUSTIVE_LIMIT:
        return _initial_reports(stack)
    sq = stack * stack
    all_ok, witness = np.ones(t, dtype=bool), [None] * t
    worst_margin = np.full(t, np.nan)  # so order 1 sets every witness, margins of inf too
    for k in range(1, min(r, c) + 1):
        rset, cset = _index_sets(r, k), _index_sets(c, k)
        # each row's norm over a column set is summed once, not once per
        # minor it enters, and multiplied down each row set
        norms = np.sqrt(np.add.reduce(sq[:, :, cset], -1))
        scales = np.multiply.reduce(norms[:, rset], axis=2)
        dets = minors = _laplace(stack, minors, k) if k > 1 else stack
        margins = dets + DEFAULT_REL_TOL * scales
        all_ok &= np.all(margins >= 0.0, axis=(1, 2))
        margins, dets = margins.reshape(t, -1), dets.reshape(t, -1)
        least = np.argmin(margins, axis=1)
        for j in np.flatnonzero(~(margins[np.arange(t), least] >= worst_margin)):
            i, (row, col) = least[j], divmod(int(least[j]), len(cset))
            worst_margin[j] = margins[j, i]
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
    Runs of equal nodes are merged first (_merged); witness columns keep
    their original indices. A stack of consecutive trials, built by one
    basis call, holds at most _GATHER_LIMIT elements (or one trial): 4 * n * n
    a trial above EXHAUSTIVE_LIMIT, 2k a k-minor of its largest order below.
    A node span too narrow to draw a trial from raises ValueError. Of equal
    worst witnesses the report keeps the first.
    """
    w = validate_weights(ns, weights)
    trials = _index(trials, "trials", 1, MAX_TRIALS)
    seed = _index(seed, "seed")
    (a0, an), n = ns.domain, ns.size
    merged, w, firsts, factors = _merged(ns, w)
    per_trial = (max(comb(n, k) * comb(merged.size, k) * 2 * k for k in range(1, merged.size + 1))
                 if n <= EXHAUSTIVE_LIMIT else 4 * n * n)
    chunk = max(1, _GATHER_LIMIT // per_trial)
    failed, worst = [], None  # worst: (witness, case), the first of least determinant
    for start in range(0, trials, chunk):
        chunk_trials = range(start, min(start + chunk, trials))
        cases = [BOUNDARY_CASES[trial % len(BOUNDARY_CASES)] for trial in chunk_trials]
        params = suite_params(seed, chunk_trials, cases, a0, an, n)
        stack = rational_basis_matrix(merged, w, params.ravel()).reshape(-1, n, merged.size)
        for trial, case, report in zip(chunk_trials, cases, _tp_reports(stack)):
            if not report.is_tp:
                failed.append((trial, case))
            if worst is None or report.witness[2] < worst[0][2]:
                worst = report.witness, case
    (rows, cols, det), case = worst
    if firsts is not None:  # a merged column is a multiple of its first node's
        cols, det = tuple(firsts[list(cols)].tolist()), float(det * np.prod(factors[list(cols)]))
    return NtpSuiteReport(trials, (rows, cols, det), case, tuple(failed))


def _merged(ns: NodeSet, w: np.ndarray) -> tuple:
    """ns and w with each run of equal nodes merged into one whose c * w is the
    run's sum, an exact reduction (their columns are multiples of one: a minor
    through two is 0, one through either a multiple of one through the sum),
    each merged node's first index and the factor from its column to that
    node's; (ns, w, None, None) if no node repeats."""
    if (ns.nodes[1:] > ns.nodes[:-1]).all():  # the cheap test every suite call makes
        return ns, w, None, None
    starts = np.flatnonzero(np.diff(ns.nodes, prepend=-np.inf))
    logs = np.log(ns.coefficients) + np.log(w)  # one vector: c * w may overflow
    total = np.logaddexp.reduceat(logs, starts)
    merged = NodeSet(ns.nodes[starts], np.exp(total - np.log(w[starts])), ns.scale)
    return merged, w[starts], starts, np.exp(logs[starts] - total)

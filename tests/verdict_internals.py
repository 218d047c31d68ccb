"""The one test module that names private parts of gtbezier.totalpos.

The TP verdict's tests judge its public results against the corpus in
tp_corpus.py. What they check of its internals (the stacks a suite judges,
their ceiling, the minors the two kernels compute) goes through the
functions here, so a rewrite of the verdict edits this module and the
corpus's pins and no other test file; test_private_names.py fails on any
other module that names a private of gtbezier.totalpos.
"""

import numpy as np

from gtbezier import totalpos

# Ceiling, in elements, on what one suite stack's verdict gathers at once
GATHER_LIMIT = totalpos._GATHER_LIMIT


def stacked(stack) -> list:
    """(is_tp, rows, cols, det) of each matrix of a (T, r, c) stack judged
    at once, as given (no row scaling): as is_totally_positive judges it alone
    where no entry exceeds one."""
    ok, dets, name = totalpos._tp_verdicts(np.asarray(stack, dtype=float))
    return [(bool(ok[j]), *name(j), float(dets[j])) for j in range(len(ok))]


def _recording(name, record, call):
    """call() with totalpos.<name> wrapped to pass its arguments to record."""
    inner = getattr(totalpos, name)
    setattr(totalpos, name, lambda *args: record(*args) or inner(*args))
    try:
        return call()
    finally:
        setattr(totalpos, name, inner)


def suite_stacks(ns, w, trials, seed=0) -> list:
    """The (T, r, c) stacks verify_ntp_suite(ns, w, trials, seed) judges, in order."""
    stacks = []
    _recording("_tp_verdicts", stacks.append,
               lambda: totalpos.verify_ntp_suite(ns, w, trials, seed))
    return stacks


def expanded_orders(matrix) -> list:
    """The orders k, in turn, of the Laplace expansion that
    is_totally_positive(matrix) forms from the order below."""
    orders = []
    _recording("_laplace", lambda stack, minors, k: orders.append(k),
               lambda: totalpos.is_totally_positive(matrix))
    return orders


def laplace_minors(stack) -> list:
    """Every order's minors of a (T, r, c) stack from the Laplace expansion,
    order 1 first: [k - 1][t, i, j] is matrix t's on the i-th k-subset of
    its rows and the j-th of its columns, in itertools.combinations order."""
    orders = [np.asarray(stack, dtype=float)]
    for k in range(2, min(orders[0].shape[1:]) + 1):
        orders.append(totalpos._laplace(orders[0], orders[-1], k))
    return orders


def initial_minors(stack) -> tuple:
    """(dets, scales) of the initial minors of a (T, r, c) stack from its
    Neville eliminations, (m, o, 2, T) arrays, m = max(r, c), o = min(r, c):
    [d, k, 0] on rows d..d+k and columns 0..k, [d, k, 1] on rows 0..k and
    columns d..d+k, each scale the product of the minor's rows' norms."""
    return totalpos._initial_minors(np.asarray(stack, dtype=float))[:2]


def merged(ns, w) -> tuple:
    """The suite's exact merge of equal nodes: (node set, weights, each
    merged node's first index, the factor from its column to that node's)."""
    return totalpos._merged(ns, w)

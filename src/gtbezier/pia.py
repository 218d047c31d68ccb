"""Progressive iterative approximation (PIA) for node-set curve fitting.

Start from the data points as control points, then repeatedly add each
point's residual: P_i^(k+1) = P_i^k + (P_i - C^k(t_i)). As the rational
basis is normalized totally positive, M = I - C (C the collocation matrix at
the fit parameters, built once per FitProblem) has spectral radius below one
whenever C is nonsingular, and the curves converge to interpolate the data.
As residuals obey d_(k+1) = M d_k, pia_run is a block power iteration with
residual replacement per block: a block of up to 128 steps takes its
residuals from two short stacks of M's powers, M^1 .. M^7 and M^8, M^16 ..
M^120, formed as blocks first need them and held within a memory budget."""

from dataclasses import dataclass, field

import numpy as np

from .basis import (_FLOAT_MAX, NodeSet, _index, _tolerance, rational_basis_matrix,
                    validate_params, validate_weights)
from .curve import GTBezierCurve, as_control_polygon

DIVERGENCE_FACTOR = 1e6
# a block of up to _SPAN * _SPANS PIA steps, whose error norms are taken
# together, is _SPANS spans of _SPAN steps: the span starts from the outer
# powers M^_SPAN, M^(2 _SPAN) .., each span's steps from the inner powers
# M^1 .. M^(_SPAN - 1). Against 64-step blocks from one stack of 63 powers,
# the helix run to 1e-4 took 0.67x the time in blocks of 8 x 16 steps and
# 0.89x in 8 x 8 (2-core x86-64, OpenBLAS); blocks of 16 x 16 or 8 x 32 took
# 0.56-0.58x, but on 31 uniform nodes their controls missed the oracle by
# 3.1e-15, past the 2.9e-15 that the accuracy test allows
_SPAN = 8
_SPANS = 16
_STACK_BUDGET = 2**18  # most doubles in a run's powers of M (2 MiB)


class DivergenceError(RuntimeError):
    """Fit error grew past the divergence guard's threshold."""


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Data points with assigned parameters over a node-set configuration.

    One data point per node; parameters strictly increasing within the
    node interval (endpoints allowed). collocation is the read-only
    rational collocation matrix C at the parameters, built once here.
    """

    data: np.ndarray
    params: np.ndarray
    nodeset: NodeSet
    weights: np.ndarray
    collocation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        data = as_control_polygon(self.data)
        w = validate_weights(self.nodeset, self.weights)
        if data.shape[0] != self.nodeset.size:
            raise ValueError("data point count must match node count")
        params = validate_params(self.nodeset, self.params)
        if params.size != data.shape[0]:
            raise ValueError("one parameter per data point required")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", w)
        # the basis as returned, C-ordered: BLAS sums PIA's products in an
        # order that follows the layout
        c = rational_basis_matrix(self.nodeset, w, params)
        c.setflags(write=False)
        object.__setattr__(self, "collocation", c)


@dataclass(frozen=True, eq=False)
class PiaState:
    """Current control points and the fit error recorded at each iteration."""

    control: np.ndarray
    error_history: tuple

    @property
    def iteration(self) -> int:
        """Number of updates applied to the initial control points."""
        return len(self.error_history)


def fitted_curve(problem: FitProblem, state: PiaState) -> GTBezierCurve:
    """The curve defined by a state's current control points."""
    return GTBezierCurve(problem.nodeset, problem.weights, state.control)


def _block_shape(n: int, max_iter: int) -> tuple:
    """(steps a span takes, spans a full block takes) on n nodes: the
    _SPAN + spans - 2 powers of a full block and one more n x n matrix fit
    the budget, and (1, 1), single float steps, where not even one span's
    do (from 182 nodes on); neither count is larger than max_iter needs."""
    spans = min(_SPANS, _STACK_BUDGET // (n * n) - _SPAN + 1)
    if spans < 1 or max_iter < 2:
        return 1, 1
    span = min(_SPAN, max_iter)
    return span, min(spans, -(-max_iter // span))


def _split(a: np.ndarray, bits: int) -> np.ndarray:
    """a rounded to whole multiples of 2**(e - bits), where |a| < 2**e."""
    e = np.frexp(np.abs(a).max())[1]
    return np.ldexp(np.rint(np.ldexp(a, bits - e)), e - bits)


def _powers(inner: np.ndarray, outer: np.ndarray, formed: tuple, need: tuple) -> tuple:
    """Forms the inner powers inner[:, i] = P^(i + 1) and the outer powers
    outer[:, i] = P^(s (i + 1)), s the span, that a block needs and that are
    not yet formed: counts (inner, outer), formed and needed, of which the
    new formed counts are returned. Powers are formed one at a time,
    P^(i + 1) = P^i P and P^(s (i + 1)) = P^(s i) P^s: by doubling, the
    history on 31 uniform nodes was twice as far from the oracle's."""
    for i in range(formed[0], need[0]):
        np.matmul(inner[:, i - 1], inner[:, 0], inner[:, i])
    for i in range(formed[1], need[1]):  # P^s = P^(s - 1) P
        np.matmul(outer[:, i - 1] if i else inner[:, -1], outer[:, 0] if i else inner[:, 0],
                  outer[:, i])
    return max(formed[0], need[0]), max(formed[1], need[1])


def pia_run(problem: FitProblem, max_iter: int, tol: float = 0.0) -> PiaState:
    """Iterate until the max residual norm drops to tol or max_iter is hit.

    Starts from the data points as control points; each update adds the
    residuals P_i - C^k(t_i) to them and records their maximum Euclidean
    norm. max_iter = 0 returns that initial state with an empty history.
    Raises DivergenceError on a NaN or inf error or one past
    DIVERGENCE_FACTOR times the first: a threshold on growth, not a proof
    of divergence, as errors can first rise (17-fold on 31 uniform nodes).

    Blocks of 1, 1, 2, 4, ... up to _SPAN * _SPANS steps take their first
    residual d_j = P - C P^j afresh and the rest in two products: one takes
    the span starts d_(j+sk) = M^(sk) d_j from the outer powers M^s, M^2s ..,
    and one every d_(j+sk+r) = M^r d_(j+sk), r < s, from the inner powers
    M^1 .. M^(s - 1), s = _SPAN steps a span. Powers are formed as blocks
    first need them; from 182 nodes on, where the budget holds too few, each
    block is one float step. Past one step d_j, whose rounding meets the
    powers, is taken to about twice the working precision from C and P^j
    split into parts of `bits` bits on one scale (exact products) and rest.
    """
    max_iter, tol = _index(max_iter, "max_iter"), _tolerance(tol, "tol")
    data, c = problem.data, problem.collocation
    n, dim = data.shape
    (span, spans), bits = _block_shape(n, max_iter), (53 - (n - 1).bit_length()) // 2
    # two stacks of powers of P = M^T side by side: inner P^1 .. P^(span - 1),
    # outer P^span, P^(2 span) .. P^((spans - 1) span); powers[k][:, i] is the
    # i-th of stack k
    inner, outer = np.empty((n, (span - 1) * n)), np.empty((n, (spans - 1) * n))
    powers = inner.reshape(n, span - 1, n), outer.reshape(n, spans - 1, n)
    formed = (1, 0)  # powers in each stack; blocks form the rest as they first need them
    if span > 1:  # else every block is one float step
        c_hi = _split(c, bits)
        c_lo, powers[0][:, 0] = c - c_hi, np.eye(n) - c.T
    # a block's residuals, span after span: (coord, step, point)
    control, history, residuals = data.copy(), [], np.empty(dim * span * spans * n)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(history) < max_iter and not (history and history[-1] <= tol):
            steps = min(span * spans, max_iter - len(history), max(1, len(history)))
            width, subs = min(span, steps), -(-steps // span)  # the last span may be cut
            if width - 1 > formed[0] or subs - 1 > formed[1]:
                formed = _powers(*powers, formed, (width - 1, subs - 1))
            block = residuals[:dim * subs * width * n].reshape(dim, subs * width, n)
            first = block[:, 0].T
            if steps == 1:  # the float step, as C @ P
                np.subtract(data, c @ control, first)
            else:  # c_hi @ hi is exact
                hi = _split(control, bits)
                np.subtract(data - c_hi @ hi, c_hi @ (control - hi) + c_lo @ control, first)
                grid = block.reshape(dim, subs, width, n)  # (coord, span, step, point)
                if subs > 1:  # the span starts d_(j+sk) = M^(sk) d_j
                    starts = first.T @ outer[:, :(subs - 1) * n]
                    grid[:, 1:, 0] = starts.reshape(dim, subs - 1, n)
                # the reshapes are views, so the product lands in the block
                np.matmul(grid[:, :, 0].reshape(dim * subs, n), inner[:, :(width - 1) * n],
                          grid[:, :, 1:].reshape(dim * subs, -1))
            block = block[:, :steps]
            squares = np.square(block).sum(0).max(-1)  # out of range: by hypot
            errs = (np.sqrt(squares) if 2.0**-1020 <= squares.min() <= squares.max() <= _FLOAT_MAX
                    else np.hypot.reduce(block).max(-1)).tolist()
            initial = (history or errs)[0]  # 0 stops the run at once, and NaN trips the guard
            limit = min(DIVERGENCE_FACTOR * initial, _FLOAT_MAX)
            k = next((k for k, err in enumerate(errs) if err <= tol or not err <= limit), steps - 1)
            if not errs[k] <= limit:  # NaN and inf trip it too
                raise DivergenceError(f"fit error {errs[k]:.3e} exceeds "
                                      f"{DIVERGENCE_FACTOR:.0e} x initial {initial:.3e}")
            history += errs[:k + 1]
            control += np.add.reduce(block[:, :k + 1], 1).T
    return PiaState(control, tuple(history))


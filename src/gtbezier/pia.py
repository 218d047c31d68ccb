"""Progressive iterative approximation (PIA) for node-set curve fitting.

Start from the data points as control points, then repeatedly add each
point's residual: P_i^(k+1) = P_i^k + (P_i - C^k(t_i)). As the rational
basis is normalized totally positive, M = I - C (C the collocation matrix at
the fit parameters, built once per FitProblem) has spectral radius below one
whenever C is nonsingular, and the curves converge to interpolate the data.
As residuals obey d_(k+1) = M d_k, pia_run is a block power iteration, with
M's powers held within a memory budget and residual replacement per block."""

from dataclasses import dataclass, field

import numpy as np

from .basis import (_FLOAT_MAX, NodeSet, _index, _tolerance, rational_basis_matrix,
                    validate_params, validate_weights)
from .curve import GTBezierCurve, as_control_polygon

DIVERGENCE_FACTOR = 1e6
_BLOCK = 64  # most PIA steps in a block, whose error norms are taken together
# fewest steps a full block may hold: measured on 2048-step runs, blocks of 8
# steps tie with single steps at 181 nodes, and fewer lose (1.09x at 7 steps,
# 2.07x at 2)
_MIN_BLOCK = 8
_STACK_BUDGET = 2**18  # most doubles in a run's stack of powers of M (2 MiB)


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


def _block_size(n: int, max_iter: int) -> int:
    """Steps B in a full block on n nodes: B n x n matrices fit the budget,
    and B = 1 where that leaves fewer than _MIN_BLOCK (from 182 nodes on)."""
    b = min(_BLOCK, _STACK_BUDGET // (n * n))
    return max(1, min(max_iter, b if b >= _MIN_BLOCK else 1))


def _split(a: np.ndarray, bits: int) -> np.ndarray:
    """a rounded to whole multiples of 2**(e - bits), where |a| < 2**e."""
    e = np.frexp(np.max(np.abs(a)))[1]
    return np.ldexp(np.round(np.ldexp(a, bits - e)), e - bits)


def pia_run(problem: FitProblem, max_iter: int, tol: float = 0.0) -> PiaState:
    """Iterate until the max residual norm drops to tol or max_iter is hit.

    Starts from the data points as control points; each update adds the
    residuals P_i - C^k(t_i) to them and records their maximum Euclidean
    norm. max_iter = 0 returns that initial state with an empty history.
    Raises DivergenceError on a NaN or inf error or one past
    DIVERGENCE_FACTOR times the first: a threshold on growth, not a proof
    of divergence, as errors can first rise (17-fold on 31 uniform nodes).

    Blocks of 1, 1, 2, 4, ... _block_size steps take d_j = P - C P^j afresh,
    d_(j+i) = M^i d_j in one product. Past one step d_j, whose rounding meets
    the powers, is taken to about twice the working precision from C and P^j
    split into parts of `bits` bits on one scale (exact products) and rest.
    """
    max_iter, tol = _index(max_iter, "max_iter"), _tolerance(tol, "tol")
    data, c = problem.data, problem.collocation
    n, dim = data.shape
    b, bits = _block_size(n, max_iter), (53 - (n - 1).bit_length()) // 2
    stack = np.empty((n, (b - 1) * n))  # P^1 .. P^(b - 1) side by side, P = M^T
    power = stack.reshape(n, b - 1, n).transpose(1, 0, 2)  # power[i] = P^(i + 1)
    formed = 1  # powers in the stack; blocks form the rest as they first need them
    if b > 1:  # else every block is one float step
        c_hi = _split(c, bits)
        c_lo, power[0] = c - c_hi, np.eye(n) - c.T
    control, history, residuals = data.copy(), [], np.empty((dim, b, n))  # (coord, step, point)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(history) < max_iter and not (history and history[-1] <= tol):
            steps = min(b, max_iter - len(history), max(1, len(history)))
            while formed < steps - 1:  # P^(k+j) = P^j P^k for j <= k: M^(k+j) = M^k M^j
                np.matmul(power[:min(formed, b - 1 - formed)], power[formed - 1],
                          power[formed:2 * formed])
                formed = min(2 * formed, b - 1)
            block = residuals[:, :steps]
            first = block[:, 0].T
            if steps == 1:  # the float step, as C @ P
                np.subtract(data, c @ control, first)
            else:  # c_hi @ hi is exact
                hi = _split(control, bits)
                np.subtract(data - c_hi @ hi, c_hi @ (control - hi) + c_lo @ control, first)
                np.matmul(first.T, stack[:, :(steps - 1) * n], block[:, 1:].reshape(dim, -1))
            squares = np.max(np.square(block).sum(0), -1)  # out of range: by hypot
            errs = (np.sqrt(squares) if 2.0**-1020 <= squares.min() <= squares.max() <= _FLOAT_MAX
                    else np.max(np.hypot.reduce(block), -1)).tolist()
            initial = (history or errs)[0]  # 0 stops the run at once, and NaN trips the guard
            limit = min(DIVERGENCE_FACTOR * initial, _FLOAT_MAX)
            k = next((k for k, err in enumerate(errs) if err <= tol or not err <= limit), steps - 1)
            if not errs[k] <= limit:  # NaN and inf trip it too
                raise DivergenceError(f"fit error {errs[k]:.3e} exceeds "
                                      f"{DIVERGENCE_FACTOR:.0e} x initial {initial:.3e}")
            history += errs[:k + 1]
            control += np.add.reduce(block[:, :k + 1], 1).T
    return PiaState(control, tuple(history))


def iteration_spectrum(problem: FitProblem) -> float:
    """LAPACK's estimate of the spectral radius of I - C, C the problem's
    rational collocation matrix; not a certificate: on 64 uniform nodes (scale
    63, unit weights, parameters at the nodes) it reads 1.0000002, where total
    positivity of a nonsingular C puts the radius below one."""
    c = problem.collocation
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(c.shape[0]) - c))))

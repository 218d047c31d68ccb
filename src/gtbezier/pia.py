"""Progressive iterative approximation (PIA) for node-set curve fitting.

Start from a curve whose control points are the data points themselves,
then repeatedly add each point's residual to its control point:

    P_i^(k+1) = P_i^k + (P_i - C^k(t_i))

Because the rational basis is normalized totally positive, the iteration
matrix I - C (C the rational collocation matrix at the fit parameters)
has spectral radius below one whenever C is nonsingular, and the curves
converge to interpolate the data.

C depends only on the problem, so a FitProblem builds it once, as a
read-only field. pia_run, the one iteration loop, steps in blocks through
buffers allocated once per run and takes each block's error norms in one
pass after it. pia_run(problem, 0) is the initial state.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import NodeSet, _index, validate_params, validate_weights
from .curve import GTBezierCurve, as_control_polygon
from .totalpos import rational_collocation_matrix

DIVERGENCE_FACTOR = 1e6
_BLOCK = 64  # PIA steps between two passes over their error norms


class DivergenceError(RuntimeError):
    """Fit error exploded past the divergence guard; bad configuration."""


@dataclass(frozen=True)
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
    collocation: np.ndarray = field(init=False, repr=False, compare=False)

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
        c = rational_collocation_matrix(self.nodeset, w, params)
        c.setflags(write=False)
        object.__setattr__(self, "collocation", c)


@dataclass(frozen=True)
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


def pia_run(problem: FitProblem, max_iter: int, tol: float = 0.0) -> PiaState:
    """Iterate until the max residual norm drops to tol or max_iter is hit.

    Starts from the data points as control points; each update adds the
    residuals P_i - C^k(t_i) to them and records their maximum Euclidean
    norm. max_iter = 0 returns that initial state with an empty history.
    Raises DivergenceError if the error grows past DIVERGENCE_FACTOR times
    the first recorded error; that cannot happen for a totally positive,
    nonsingular collocation matrix and signals a misconfigured problem.

    The steps run in blocks of _BLOCK, each writing into preallocated
    slots, and a block's error norms are taken in one pass after it. Only
    then is the step that meets tol or trips the guard found, so up to
    _BLOCK - 1 steps past it are computed and dropped (never steps past
    max_iter). Floating-point overflow raises no warning, in those steps
    or any other: an error that overflows is recorded as inf, which trips
    the guard. Histories and controls equal those of taking one update at
    a time.
    """
    if _index(max_iter, "max_iter") < 0:
        raise ValueError("max_iter must be non-negative")
    if not tol >= 0:  # NaN fails too
        raise ValueError("tol must be non-negative")
    data, c = problem.data, problem.collocation
    ctrl = np.empty((_BLOCK + 1,) + data.shape)
    delta = np.empty((_BLOCK,) + data.shape)
    product = np.empty_like(data)
    # step j reads ctrl[j] and writes delta[j] and ctrl[j + 1]
    slots = list(zip(ctrl[:-1], delta, ctrl[1:]))
    ctrl[0] = data
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        while len(history) < max_iter:
            steps = min(_BLOCK, max_iter - len(history))
            # outputs passed positionally: keyword parsing costs each call
            for control, step, updated in slots[:steps]:
                np.dot(c, control, product)
                np.subtract(data, product, step)
                np.add(control, step, updated)
            block = delta[:steps]
            # sqrt is monotone and correctly rounded, so the root of the
            # largest squared norm is the largest norm, bit for bit
            errs = np.sqrt(np.max(np.add.reduce(block * block, -1), -1)).tolist()
            if not history:
                first = errs[0]
                limit = DIVERGENCE_FACTOR * first if first > 0 else np.inf
            for k, err in enumerate(errs):
                if err > limit:
                    raise DivergenceError(
                        f"fit error {err:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x initial {first:.3e}"
                    )
                if err <= tol:
                    history += errs[:k + 1]
                    return PiaState(ctrl[k + 1].copy(), tuple(history))
            history += errs
            ctrl[0] = ctrl[steps]
    return PiaState(ctrl[0].copy(), tuple(history))


def iteration_spectrum(problem: FitProblem) -> float:
    """Spectral radius of I - C for the problem's rational collocation
    matrix C; a value below one certifies convergence of the iteration."""
    c = problem.collocation
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(c.shape[0]) - c))))

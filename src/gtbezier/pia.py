"""Progressive iterative approximation (PIA) for node-set curve fitting.

Start from a curve whose control points are the data points themselves,
then repeatedly add each point's residual to its control point:

    P_i^(k+1) = P_i^k + (P_i - C^k(t_i))

Because the rational basis is normalized totally positive, the iteration
matrix I - C (C the rational collocation matrix at the fit parameters)
has spectral radius below one whenever C is nonsingular, and the curves
converge to interpolate the data.
"""

from dataclasses import dataclass

import numpy as np

from .basis import NodeSet, validate_params, validate_weights
from .curve import GTBezierCurve, as_control_polygon
from .totalpos import rational_collocation_matrix

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Fit error exploded past the divergence guard; bad configuration."""


@dataclass(frozen=True)
class FitProblem:
    """Data points with assigned parameters over a node-set configuration.

    One data point per node; parameters strictly increasing within the
    node interval (endpoints allowed).
    """

    data: np.ndarray
    params: np.ndarray
    nodeset: NodeSet
    weights: np.ndarray

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


@dataclass(frozen=True)
class PiaState:
    """Current control points, iteration counter, and per-iteration errors."""

    control: np.ndarray
    iteration: int
    error_history: tuple


def pia_init(problem: FitProblem) -> PiaState:
    """Initial state: control points are the data points themselves."""
    return PiaState(problem.data.copy(), 0, ())


def fitted_curve(problem: FitProblem, state: PiaState) -> GTBezierCurve:
    """The curve defined by a state's current control points."""
    return GTBezierCurve(problem.nodeset, problem.weights, state.control)


def _collocation(problem: FitProblem) -> np.ndarray:
    return rational_collocation_matrix(problem.nodeset, problem.weights, problem.params)


def adjustment_vectors(problem: FitProblem, state: PiaState) -> np.ndarray:
    """Residuals P_i - C^k(t_i) driving the next control update."""
    return problem.data - _collocation(problem) @ state.control


def pia_step(problem: FitProblem, state: PiaState) -> PiaState:
    """One update: add each residual to its control point.

    The recorded error is the maximum Euclidean norm of the residuals.
    """
    delta = adjustment_vectors(problem, state)
    err = float(np.max(np.linalg.norm(delta, axis=1)))
    return PiaState(
        control=state.control + delta,
        iteration=state.iteration + 1,
        error_history=state.error_history + (err,),
    )


def pia_run(problem: FitProblem, max_iter: int, tol: float = 0.0) -> PiaState:
    """Iterate until the max residual norm drops to tol or max_iter is hit.

    Raises DivergenceError if the error grows past DIVERGENCE_FACTOR times
    the first recorded error; that cannot happen for a totally positive,
    nonsingular collocation matrix and signals a misconfigured problem.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    state = pia_init(problem)
    for _ in range(max_iter):
        state = pia_step(problem, state)
        err = state.error_history[-1]
        first = state.error_history[0]
        if first > 0 and err > DIVERGENCE_FACTOR * first:
            raise DivergenceError(
                f"fit error {err:.3e} exceeds {DIVERGENCE_FACTOR:.0e} x initial {first:.3e}"
            )
        if err <= tol:
            break
    return state


def iteration_spectrum(problem: FitProblem) -> float:
    """Spectral radius of I - C for the problem's rational collocation
    matrix C; a value below one certifies convergence of the iteration."""
    c = _collocation(problem)
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(c.shape[0]) - c))))

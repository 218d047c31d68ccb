"""The circle and helix fitting benchmarks, each defined once.

Circle: five samples of (cos t, sin t) at parameters 0, pi/4, pi/2,
pi*pi/4, pi (the fourth sample sits at an irrational parameter; the
sequence is still increasing). Helix: 31 samples of
(cos(pi t), sin(pi t), t/6) at multiples of 2*pi/30 with the fourth
parameter replaced by pi*2*pi/30.

The sharpness constants below are quoted per unit of node span; the
node-set scale is sharpness divided by (a_n - a_0). The reference error
tables for these benchmarks are only reproduced under that normalization
(applying the sharpness to the raw node range makes the 31-node
collocation matrix numerically singular and the fit stalls).

example_problems gives each benchmark's tuned problem with baselines that
fit the same data with classical or rational Bezier curves; their parameters
are rescaled to the Bezier domain [0, n] keeping the same relative spacing.
"""

import math

import numpy as np

from .basis import NodeSet, bernstein_equivalent_nodeset
from .pia import FitProblem

CIRCLE_COEFFICIENTS = (1.0, 0.9, 0.8, 0.9, 1.0)
CIRCLE_SHARPNESS = 4.5  # per unit node span
CIRCLE_WEIGHTS = (0.5, 2.51, 5.5, 2.51, 0.22)
CIRCLE_CHECKPOINTS = (1, 5, 10, 20)

HELIX_SHARPNESS = 31.1  # per unit node span
HELIX_CHECKPOINTS = (1, 10, 20, 30)


def _span_scale(params: np.ndarray, sharpness: float) -> float:
    return sharpness / (params[-1] - params[0])


def circle_parameters() -> np.ndarray:
    xi = np.arange(5, dtype=float) * (math.pi / 4)
    xi[3] = math.pi * (math.pi / 4)
    return xi


def circle_samples() -> np.ndarray:
    xi = circle_parameters()
    return np.column_stack([np.cos(xi), np.sin(xi)])


def circle_node_set() -> NodeSet:
    xi = circle_parameters()
    return NodeSet(xi, np.array(CIRCLE_COEFFICIENTS), _span_scale(xi, CIRCLE_SHARPNESS))


def circle_problem() -> FitProblem:
    """Circle samples fitted with the tuned node-set configuration."""
    xi = circle_parameters()
    return FitProblem(circle_samples(), xi, circle_node_set(), np.array(CIRCLE_WEIGHTS))


def _bezier_problem(data: np.ndarray, params: np.ndarray, weights=None) -> FitProblem:
    n = data.shape[0] - 1
    rescaled = n * (params - params[0]) / (params[-1] - params[0])
    return FitProblem(data, rescaled, bernstein_equivalent_nodeset(n), weights)


def helix_parameters() -> np.ndarray:
    xi = np.arange(31, dtype=float) * (2 * math.pi / 30)
    xi[3] = math.pi * (2 * math.pi / 30)
    return xi


def helix_samples() -> np.ndarray:
    xi = helix_parameters()
    return np.column_stack([np.cos(math.pi * xi), np.sin(math.pi * xi), xi / 6])


def helix_weights() -> np.ndarray:
    return np.array([math.comb(31, i) for i in range(31)], dtype=float)


def helix_node_set() -> NodeSet:
    xi = helix_parameters()
    return NodeSet(xi, np.full(31, 1.0 / 30**2), _span_scale(xi, HELIX_SHARPNESS))


def helix_problem() -> FitProblem:
    """Helix samples fitted with binomial weights."""
    xi = helix_parameters()
    return FitProblem(helix_samples(), xi, helix_node_set(), helix_weights())


def example_problems(which: str) -> tuple:
    """(problems, checkpoints) of the "circle" or "helix" benchmark: a dict
    from label to FitProblem, and the error table's iteration counts."""
    if which == "circle":
        data, params = circle_samples(), circle_parameters()
        problems = {"gt": circle_problem(), "bezier": _bezier_problem(data, params),
                    "rational": _bezier_problem(data, params, CIRCLE_WEIGHTS)}
        return problems, CIRCLE_CHECKPOINTS
    if which == "helix":
        problems = {"gt": helix_problem(),
                    "bezier": _bezier_problem(helix_samples(), helix_parameters())}
        return problems, HELIX_CHECKPOINTS
    raise ValueError(f"unknown benchmark {which!r}; expected 'circle' or 'helix'")

"""Toric Bernstein basis functions on arbitrary real node sets.

A node set is a non-decreasing sequence of real numbers a_0 <= ... <= a_n
(a_0 < a_n) carrying one positive coefficient per node and a positive scale
l. The basis function attached to node a_i is

    beta_i(t) = c_i * h0(t)**h0(a_i) * h1(t)**h1(a_i)

with h0(t) = l*(t - a_0) and h1(t) = l*(a_n - t). Exponents are real, so
all interior evaluation happens in the log domain; the endpoint cases use
the convention 0**0 == 1, which makes exactly the matching endpoint basis
function survive at t = a_0 and t = a_n.
"""

import math
from dataclasses import dataclass

import numpy as np


def _as_float_vector(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class NodeSet:
    """Sorted real nodes with per-node coefficients and a positive scale.

    Coefficients default to 1 for every node and the scale to 1. Invalid
    input raises ValueError; nothing is silently repaired.
    """

    nodes: np.ndarray
    coefficients: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        nodes = _as_float_vector(self.nodes, "nodes")
        if nodes.size < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(nodes) < 0):
            raise ValueError("nodes must be non-decreasing")
        if nodes[0] == nodes[-1]:
            raise ValueError("degenerate node range: first and last node coincide")
        if self.coefficients is None:
            coeffs = np.ones_like(nodes)
        else:
            coeffs = _as_float_vector(self.coefficients, "coefficients")
        if coeffs.shape != nodes.shape:
            raise ValueError("coefficients must match nodes in length")
        if np.any(coeffs <= 0):
            raise ValueError("coefficients must all be positive")
        scale = float(self.scale)
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("scale must be positive")
        nodes = nodes.copy()
        coeffs = coeffs.copy()
        nodes.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "scale", scale)

    @property
    def size(self) -> int:
        """Number of nodes, n + 1."""
        return self.nodes.size

    @property
    def domain(self) -> tuple[float, float]:
        """The parameter interval [a_0, a_n]."""
        return float(self.nodes[0]), float(self.nodes[-1])


def validate_weights(ns: NodeSet, weights=None) -> np.ndarray:
    """Check a weight vector against its node set (positive, matching length)."""
    if weights is None:
        w = np.ones(ns.size)
    else:
        w = _as_float_vector(weights, "weights")
        if w.size != ns.size:
            raise ValueError("weights must match nodes in length")
        if np.any(w <= 0):
            raise ValueError("weights must all be positive")
        w = w.copy()
    w.setflags(write=False)
    return w


def _check_domain(ns: NodeSet, ts: np.ndarray):
    a0, an = ns.domain
    if ts.size and not (a0 <= ts.min() and ts.max() <= an):  # NaN fails too
        raise ValueError(f"parameter out of domain [{a0}, {an}]")


def validate_params(ns: NodeSet, params) -> np.ndarray:
    """Check a parameter sequence against its node set: non-empty, finite,
    strictly increasing and inside [a_0, a_n] (endpoints allowed)."""
    p = _as_float_vector(params, "params")
    if p.size == 0:
        raise ValueError("params must not be empty")
    if np.any(np.diff(p) <= 0):
        raise ValueError("params must be strictly increasing")
    _check_domain(ns, p)
    p = p.copy()
    p.setflags(write=False)
    return p


def log_basis_matrix(ns: NodeSet, ts) -> np.ndarray:
    """Log of every basis function at every parameter.

    Returns an (m, n+1) array with entry (i, j) = log beta_j(t_i), where
    -inf marks an exactly-zero basis value. A zero exponent contributes
    log 1 = 0 regardless of its base (the 0**0 == 1 endpoint convention),
    so endpoint rows come out exact.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_domain(ns, ts)
    a0, an = ns.domain
    h0 = ns.scale * (ts - a0)
    h1 = ns.scale * (an - ts)
    e0 = ns.scale * (ns.nodes - a0)
    e1 = ns.scale * (an - ns.nodes)
    # One (m, n+1) buffer; the terms are summed as (log c + h0 term) + h1 term,
    # the order of the out-of-place formula, so the values stay bit-identical.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply.outer(np.log(h0), e0)
        out[:, e0 == 0.0] = 0.0
        out += np.log(ns.coefficients)
        term1 = np.multiply.outer(np.log(h1), e1)
    term1[:, e1 == 0.0] = 0.0
    out += term1
    return out


def rational_basis_matrix(ns: NodeSet, weights: np.ndarray, ts) -> np.ndarray:
    """Weight-normalized basis values at each parameter; rows sum to one.

    Stabilized softmax: the largest log term of each row is subtracted
    before exponentiation, so huge exponents (large scale times node range)
    never overflow. Computed in place in the log-basis buffer.
    """
    out = log_basis_matrix(ns, ts)
    out += np.log(weights)
    out -= np.max(out, axis=1, keepdims=True)
    np.exp(out, out=out)
    denom = out.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(denom)) or np.any(denom == 0.0):
        raise ArithmeticError("zero denominator in rational basis; underflow bug")
    out /= denom
    return out


def bernstein_reference(n: int, i: int, x: float) -> float:
    """Classical Bernstein polynomial B_i^n(x); used as a test oracle."""
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range 0..{n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return float(math.comb(n, i) * x**i * (1.0 - x) ** (n - i))


def bernstein_equivalent_nodeset(n: int) -> NodeSet:
    """Node set on 0..n that reproduces the degree-n Bernstein basis.

    With nodes a_i = i, coefficients C(n, i)/n**n, and scale 1, the raw
    basis satisfies beta_i(n*x) == B_i^n(x) for x in [0, 1].
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    nodes = np.arange(n + 1, dtype=float)
    coeffs = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    return NodeSet(nodes, coeffs / float(n) ** n, 1.0)

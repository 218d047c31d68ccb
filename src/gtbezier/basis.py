"""Toric Bernstein basis functions on arbitrary real node sets.

A node set is a non-decreasing sequence of real numbers a_0 <= ... <= a_n
(a_0 < a_n) carrying one positive coefficient per node and a positive scale
l. The basis function attached to node a_i is

    beta_i(t) = c_i * h0(t)**h0(a_i) * h1(t)**h1(a_i)

with h0(t) = l*(t - a_0) and h1(t) = l*(a_n - t). Exponents are real, so
all interior evaluation happens in the log domain; the endpoint cases use
the convention 0**0 == 1, which makes exactly the matching endpoint basis
function survive at t = a_0 and t = a_n.

The exponents of beta_i sum to l*(a_n - a_0), so up to a factor common to a row
beta_i(t) = c_i * exp(l*(a_i - a_0)*s(t)), s(t) = log((t - a_0)/(a_n - t)). _log_powers
forms them for the rational basis (their softmax) and the power matrix (their exp).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

# Largest accepted exponent span scale * (a_n - a_0). Every exponent is
# s(t) * l*(a_j - a_0) with |s| <= about 1455, or in the raw log basis log h *
# l*(a_j - a_0) or log h * l*(a_n - a_j) with |log h| <= 745, so below this span
# each stays at or below about 1.5e303 and sums of them stay finite.
MAX_EXPONENT_SPAN = 1e300


def _as_float_vector(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _index(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class NodeSet:
    """Sorted real nodes with per-node coefficients and a positive scale.

    Coefficients default to 1 for every node and the scale to 1; the
    exponent span scale * (a_n - a_0) is at most MAX_EXPONENT_SPAN. Invalid
    input raises ValueError; nothing is silently repaired.
    """

    nodes: np.ndarray
    coefficients: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        nodes = _as_float_vector(self.nodes, "nodes")
        if nodes.size < 2:
            raise ValueError("need at least two nodes")
        if np.any(nodes[1:] < nodes[:-1]):  # no subtraction to overflow
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
        # Python floats: an overflowing span becomes inf without a warning
        if scale * (float(nodes[-1]) - float(nodes[0])) > MAX_EXPONENT_SPAN:
            raise ValueError(f"scale * (a_n - a_0) must be at most {MAX_EXPONENT_SPAN:g}")
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


def _grid(ns: NodeSet, ts) -> np.ndarray:
    """Parameters as a float vector inside [a_0, a_n]; a scalar is one."""
    ts, (a0, an) = np.atleast_1d(np.asarray(ts, dtype=float)), ns.domain
    if ts.ndim != 1:
        raise ValueError("parameters must be a scalar or a one-dimensional sequence")
    if ts.size and not (a0 <= ts.min() and ts.max() <= an):  # NaN fails too
        raise ValueError(f"parameter out of domain [{a0}, {an}]")
    return ts


def validate_params(ns: NodeSet, params) -> np.ndarray:
    """Check a parameter sequence against its node set: non-empty, finite,
    strictly increasing and inside [a_0, a_n] (endpoints allowed)."""
    p = _as_float_vector(params, "params")
    if p.size == 0:
        raise ValueError("params must not be empty")
    if np.any(np.diff(p) <= 0):
        raise ValueError("params must be strictly increasing")
    p = _grid(ns, p).copy()
    p.setflags(write=False)
    return p


def log_basis_matrix(ns: NodeSet, ts) -> np.ndarray:
    """Log of every basis function at every parameter.

    Returns an (m, n+1) array with entry (i, j) = log beta_j(t_i), where
    -inf marks an exactly-zero basis value. A zero exponent contributes
    log 1 = 0 regardless of its base (the 0**0 == 1 endpoint convention),
    so endpoint rows come out exact.
    """
    ts = _grid(ns, ts)
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


def _log_powers(ns: NodeSet, ts) -> np.ndarray:
    """Entry (i, j) = s(t_i) * l*(a_j - a_0); rows at t = a_0 and a_n are exactly
    0 where the node equals that endpoint and -inf elsewhere. s is a difference
    of logs: the ratio under- or overflows a subnormal step from an endpoint at 0."""
    ts, (a0, an) = _grid(ns, ts), ns.domain
    with np.errstate(divide="ignore", invalid="ignore"):  # endpoint rows are replaced
        out = np.multiply.outer(np.log(ts - a0) - np.log(an - ts), ns.scale * (ns.nodes - a0))
    out[ts == a0] = np.where(ns.nodes == a0, 0.0, -np.inf)
    out[ts == an] = np.where(ns.nodes == an, 0.0, -np.inf)
    return out


def rational_basis_matrix(ns: NodeSet, weights, ts) -> np.ndarray:
    """Weight-normalized basis values at each parameter; rows sum to one.

    The weights are checked by validate_weights (None gives unit weights).
    Stabilized softmax of _log_powers + (log c + log w): the largest term of
    each row is subtracted before exponentiation, so huge exponents (large
    scale times node range) never overflow. Computed in place in one buffer.
    """
    w = validate_weights(ns, weights)
    out = _log_powers(ns, ts)
    out += np.log(ns.coefficients) + np.log(w)  # one vector: c*w may overflow
    out -= np.max(out, axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)  # at least 1: each row holds an exp(0)
    return out


def power_reduction(ns: NodeSet, params) -> np.ndarray:
    """Power matrix x_i ** (l*(a_j - a_0)), x_i = (t_i - a_0)/(a_n - t_i), with exact
    0/1 border rows at endpoint parameters: TP exactly when the collocation
    matrix is, which differs from it only by positive row and column scalings."""
    return np.exp(_log_powers(ns, validate_params(ns, params)))


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

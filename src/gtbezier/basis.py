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
beta_i(t) = c_i * exp(l*(a_i - a_0)*s(t)), s(t) = log((t - a_0)/(a_n - t)).
rational_basis_matrix, the one evaluator, takes the row softmax of these
exponents plus log c + log w.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Largest accepted exponent span scale * (a_n - a_0). Every exponent is
# s(t) * l*(a_j - a_0) with |s| <= about 1455, so below this span each stays
# at or below about 1.5e303 and its sum with log c + log w stays finite.
MAX_EXPONENT_SPAN = 1e300
_FLOAT_MAX = float(np.finfo(float).max)
_BLOCK_VALUES = 2**17  # most values _softmax_blocks holds node-major: 1 MiB, cache-sized


def _index(value, name: str, low: int = 0, high: int | None = None) -> int:
    """The count rule: value, not a bool, as an int in [low, high]; high None is no bound."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be " + ("non-negative" if low == 0 else f"at least {low}"))
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}")
    return int(value)


def _tolerance(value, name: str) -> float:
    """The tolerance rule: value, not a bool, as a finite, non-negative float."""
    message = f"{name} must be a finite number >= 0, not {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(message)
    if not 0 <= value <= _FLOAT_MAX:  # NaN fails too; an int of any size compares exactly
        raise ValueError(message)
    return float(value)


_SHAPES = {1: "a list of finite numbers", 2: "a list of lists of finite numbers"}


def _reals(values, name: str, ndim: int, low: float = -_FLOAT_MAX, high: float = _FLOAT_MAX):
    """The array rule: values, nested sequences or an array of real numbers
    that are not bools, ndim deep and not ragged, as a float ndarray in
    [low, high] (by default every finite double). An ndarray of numbers is
    judged by its dtype and not copied, anything else by its entries' types.
    A wrong type raises TypeError, anything else ValueError."""
    message = f"{name} must be {_SHAPES[ndim]} (found {{}})"
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind not in "iuf":
            raise TypeError(message.format(values.dtype))
    else:
        try:
            values = np.array(values, dtype=object)
        except ValueError:  # arrays of unequal shapes
            raise ValueError(message.format("ragged nesting")) from None
        # reshape, not .flat, which takes at most 32 dimensions; first seen first
        for kind in dict.fromkeys(map(type, values.reshape(-1))):
            if issubclass(kind, (list, tuple, np.ndarray)):
                raise ValueError(message.format("ragged nesting"))
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise TypeError(message.format(kind.__name__))
    if values.ndim != ndim:
        raise ValueError(message.format(f"depth {values.ndim}"))
    try:
        arr = values.astype(float, copy=False)
    except OverflowError:
        raise TypeError(message.format("an int beyond the double range")) from None
    if arr.size and not (low <= arr.min() and arr.max() <= high):  # NaN fails too
        bad = arr[~np.isfinite(arr)]
        raise ValueError(message.format(bad[0]) if bad.size else
                         f"{name} out of domain [{low}, {high}]")
    return arr


def _per_node(values, name: str, size: int) -> np.ndarray:
    """The rule of coefficients and weights: values, None for all ones, as a
    read-only float copy of size entries, every one positive."""
    arr = np.ones(size) if values is None else _reals(values, name, 1).copy()
    if arr.size != size:
        raise ValueError(f"{name} must match nodes in length")
    if np.any(arr <= 0):
        raise ValueError(f"{name} must all be positive")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Sorted real nodes with per-node coefficients and a positive scale.

    Coefficients default to 1 for every node and the scale to 1; the
    exponent span scale * (a_n - a_0) is at most MAX_EXPONENT_SPAN. Invalid
    input raises TypeError or ValueError; nothing is silently repaired.
    """

    nodes: np.ndarray
    coefficients: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        nodes = _reals(self.nodes, "nodes", 1)
        if nodes.size < 2:
            raise ValueError("need at least two nodes")
        if np.any(nodes[1:] < nodes[:-1]):  # no subtraction to overflow
            raise ValueError("nodes must be non-decreasing")
        if nodes[0] == nodes[-1]:
            raise ValueError("degenerate node range: first and last node coincide")
        coeffs = _per_node(self.coefficients, "coefficients", nodes.size)
        scale = _tolerance(self.scale, "scale")
        if scale == 0:
            raise ValueError("scale must be positive")
        # Python floats: an overflowing span becomes inf without a warning
        if scale * (float(nodes[-1]) - float(nodes[0])) > MAX_EXPONENT_SPAN:
            raise ValueError(f"scale * (a_n - a_0) must be at most {MAX_EXPONENT_SPAN:g}")
        nodes = nodes.copy()
        nodes.setflags(write=False)
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
    return _per_node(weights, "weights", ns.size)


def _grid(ns: NodeSet, ts) -> np.ndarray:
    """Parameters as a float vector inside [a_0, a_n]; a scalar is one."""
    if np.isscalar(ts) or isinstance(ts, np.ndarray) and ts.ndim == 0:
        ts = np.reshape(ts, 1)
    return _reals(ts, "parameters", 1, *ns.domain)


def validate_params(ns: NodeSet, params) -> np.ndarray:
    """Check a parameter sequence against its node set: non-empty, finite,
    strictly increasing and inside [a_0, a_n] (endpoints allowed)."""
    p = _reals(params, "params", 1, *ns.domain)
    if p.size == 0:
        raise ValueError("params must not be empty")
    if np.any(np.diff(p) <= 0):
        raise ValueError("params must be strictly increasing")
    p = p.copy()
    p.setflags(write=False)
    return p


def _softmax_blocks(ns: NodeSet, w: np.ndarray, ts: np.ndarray):
    """Yield (start, e, sums) for each block ts[start:start + cols] of the
    checked parameters ts, w the checked weights. e is the node-major
    (n + 1, cols) array exp(x - max x) of each column's exponents
    x = s(t) * l*(a_j - a_0) + (log c + log w), and sums holds its column
    sums, each added row after row in node order: e / sums is the block's
    basis, transposed. So a parameter's values depend neither on the block
    width nor on the other parameters of the call.

    Rows at t = a_0 and a_n take exponent 0 where the node equals that
    endpoint and -inf elsewhere. s is a difference of logs, since the ratio
    under- or overflows a subnormal step from an endpoint at 0. e is a view
    of one buffer of at most _BLOCK_VALUES values, which the next block
    overwrites.
    """
    a0, an = ns.domain
    span = ns.scale * (ns.nodes - a0)
    logs = (np.log(ns.coefficients) + np.log(w))[:, None]  # one vector: c*w may overflow
    first = np.where(ns.nodes == a0, 0.0, -np.inf)[:, None]
    last = np.where(ns.nodes == an, 0.0, -np.inf)[:, None]
    cols = max(1, _BLOCK_VALUES // ns.size)
    buf = np.empty((ns.size, min(cols, ts.size)))
    for start in range(0, ts.size, cols):
        t = ts[start:start + cols]
        e = buf[:, :t.size]
        with np.errstate(divide="ignore", invalid="ignore"):  # endpoint columns are replaced
            np.multiply.outer(span, np.log(t - a0) - np.log(an - t), out=e)
        e[:, t == a0] = first
        e[:, t == an] = last
        e += logs
        e -= e.max(axis=0)
        np.exp(e, out=e)
        sums = e[0].copy()  # at least 1: each column holds an exp(0)
        for row in e[1:]:
            sums += row
        yield start, e, sums


def rational_basis_matrix(ns: NodeSet, weights, ts) -> np.ndarray:
    """Weight-normalized basis values at each parameter; rows sum to one.

    The weights are checked by validate_weights (None gives unit weights).
    Stabilized softmax of s(t_i) * l*(a_j - a_0) + (log c + log w): the largest
    term of each row is subtracted before exponentiation, so huge exponents
    (large scale times node range) never overflow, and endpoint rows are
    exact (see _softmax_blocks).

    The parameters are taken a block at a time in a node-major (n + 1, cols)
    buffer of at most _BLOCK_VALUES values, so every step runs along the
    parameters; each block is divided by its sums and transposed into the
    C-ordered (N, n + 1) result. A row's bits depend only on its parameter,
    not on how many parameters share the call.
    """
    w = validate_weights(ns, weights)
    ts = _grid(ns, ts)
    basis = np.empty((ts.size, ns.size))
    for start, e, sums in _softmax_blocks(ns, w, ts):
        e /= sums
        basis[start:start + sums.size] = e.T
    return basis


def bernstein_equivalent_nodeset(n: int) -> NodeSet:
    """Node set on 0..n that reproduces the degree-n Bernstein basis.

    With nodes a_i = i, coefficients C(n, i)/n**n, and scale 1, the raw
    basis satisfies beta_i(n*x) == B_i^n(x) for x in [0, 1]. Those rows sum
    to one, so the normalized basis with unit weights equals it.
    """
    n = _index(n, "degree", 1)
    nodes = np.arange(n + 1, dtype=float)
    coeffs = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    return NodeSet(nodes, coeffs / float(n) ** n, 1.0)

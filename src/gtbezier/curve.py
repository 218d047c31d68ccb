"""Curves blended from rational toric Bernstein bases."""

from dataclasses import dataclass

import numpy as np

from .basis import (_FLOAT_MAX, NodeSet, _grid, _index, _reals, _softmax_blocks,
                    validate_weights)


def as_control_polygon(points) -> np.ndarray:
    """Validate an ordered list of 2D or 3D points as an (m, d) array."""
    arr = _reals(points, "points", 2)
    if arr.shape[0] < 2:
        raise ValueError("control polygon needs at least two points")
    if arr.shape[1] not in (2, 3):
        raise ValueError("points must live in R^2 or R^3")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GTBezierCurve:
    """A rational-basis curve: sum of control points times basis values.

    Control point count, node count, and weight count must all agree.
    """

    nodeset: NodeSet
    weights: np.ndarray
    control: np.ndarray

    def __post_init__(self):
        w = validate_weights(self.nodeset, self.weights)
        ctrl = as_control_polygon(self.control)
        if ctrl.shape[0] != self.nodeset.size:
            raise ValueError("control point count must match node count")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "control", ctrl)

    @property
    def dim(self) -> int:
        return self.control.shape[1]


def curve_points(curve: GTBezierCurve, ts) -> np.ndarray:
    """Curve points at each parameter, as an (m, d) array.

    Each block (e, sums) of _softmax_blocks is contracted with the controls P
    before it is normalized, (e.T @ P) / sums, so the (m, n + 1) basis is
    never built. The points meet an mpmath contraction's bound; their last
    bits depend on how many parameters share a block, through BLAS's choice
    of kernel.
    """
    ns = curve.nodeset
    ts = _grid(ns, ts)
    # a column of e sums to at most n + 1, so controls near the top of the
    # double range are contracted at an exact power-of-two scale that keeps
    # every product finite
    k = ns.size.bit_length() if np.max(np.abs(curve.control)) > _FLOAT_MAX / ns.size else 0
    control = np.ldexp(curve.control, -k)
    points = np.empty((ts.size, curve.dim))
    for start, e, sums in _softmax_blocks(ns, curve.weights, ts):
        block = points[start:start + sums.size]
        np.matmul(e.T, control, out=block)
        block /= sums[:, None]
    return np.ldexp(points, k, out=points) if k else points


def sample_polyline(curve: GTBezierCurve, count: int) -> np.ndarray:
    """Evaluate at count uniformly spaced parameters, endpoints included."""
    count = _index(count, "count", 2)
    a0, an = curve.nodeset.domain
    return curve_points(curve, np.linspace(a0, an, count))


"""Curves blended from rational toric Bernstein bases."""

from dataclasses import dataclass

import numpy as np

from .basis import NodeSet, _index, _reals, rational_basis_matrix, validate_weights


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
    """Curve points at each parameter, as an (m, d) array."""
    return rational_basis_matrix(curve.nodeset, curve.weights, ts) @ curve.control


def sample_polyline(curve: GTBezierCurve, count: int) -> np.ndarray:
    """Evaluate at count uniformly spaced parameters, endpoints included."""
    count = _index(count, "count", 2)
    a0, an = curve.nodeset.domain
    return curve_points(curve, np.linspace(a0, an, count))


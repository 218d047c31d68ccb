"""Reference objects the tests check the library against: the paper's
generalized Vandermonde matrices and the classical Bernstein polynomials.

They serve only to check the library's basis values and total-positivity
verdicts. pytest puts this directory on sys.path, so tests import them
with `from oracles import ...`.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GenVandermondeSpec:
    """Positive abscissas t, strictly increasing real exponents alpha, and
    one above-diagonal sign per column after the first.

    A sign of +1 requires t_i > t_{i-1}; a sign of -1 relaxes that to >=.
    """

    t: np.ndarray
    alpha: np.ndarray
    signs: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if t.ndim != 1 or t.size < 2 or alpha.shape != t.shape:
            raise ValueError("t and alpha must be matching vectors of length >= 2")
        if np.any(t <= 0):
            raise ValueError("all t values must be positive")
        if np.any(np.diff(alpha) <= 0):
            raise ValueError("alpha must be strictly increasing")
        signs = self.signs
        if signs is None:
            signs = np.ones(t.size - 1)
        signs = np.asarray(signs, dtype=float)
        if signs.shape != (t.size - 1,) or not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("signs must be n values from {-1, +1}")
        dt = np.diff(t)
        if np.any(dt[signs == 1.0] <= 0) or np.any(dt[signs == -1.0] < 0):
            raise ValueError("t ordering violates the sign chain")
        for name, arr in (("t", t), ("alpha", alpha), ("signs", signs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def generalized_vandermonde(spec: GenVandermondeSpec) -> np.ndarray:
    """Matrix with entry (i, j) = s_j * t_i**alpha_j above the diagonal and
    t_i**alpha_j on or below it; all signs +1 gives the plain power matrix."""
    powers = spec.t[:, None] ** spec.alpha[None, :]
    colsign = np.concatenate(([1.0], spec.signs))
    mat = powers.copy()
    above = np.triu_indices(spec.t.size, k=1)
    mat[above] = (powers * colsign[None, :])[above]
    return mat


def bernstein_reference(n: int, i: int, x: float) -> float:
    """Classical Bernstein polynomial B_i^n(x)."""
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range 0..{n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return float(math.comb(n, i) * x**i * (1.0 - x) ** (n - i))

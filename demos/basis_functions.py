#!/usr/bin/env python3
"""Tour of the node-set basis functions.

Builds bases on integer and irrational node sets, shows the degeneration
to classical Bernstein polynomials, and plots the rational basis of the
circle benchmark as an SVG.
"""

import math
import sys
from pathlib import Path

import numpy as np

from gtbezier import NodeSet, bernstein_equivalent_nodeset, rational_basis_matrix
from gtbezier import datasets
from gtbezier.export import write_svg


def raw_basis(ns, ts):
    """beta_j(t) = c_j * h0(t)**h0(a_j) * h1(t)**h1(a_j) at each parameter, with
    h0(t) = l*(t - a_0) and h1(t) = l*(a_n - t); numpy's 0.0**0.0 is 1.0."""
    (a0, an), l, t = ns.domain, ns.scale, np.reshape(ts, (-1, 1))
    h0, h1 = l * (t - a0), l * (an - t)
    return ns.coefficients * h0 ** (l * (ns.nodes - a0)) * h1 ** (l * (an - ns.nodes))


out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out.mkdir(parents=True, exist_ok=True)

# ------------------------------------------------------------------
# two nodes {0, 1}: the basis is the pair 1 - t, t
ns = NodeSet([0, 1])
beta = raw_basis(ns, 0.5)[0]
print("nodes {0, 1}:  beta_0(0.5) =", beta[0], "  beta_1(0.5) =", beta[1])

# ------------------------------------------------------------------
# integer nodes with binomial coefficients reproduce Bernstein polynomials
n = 4
nsb = bernstein_equivalent_nodeset(n)
xs = np.linspace(0, 1, 7)
print(f"\ndegeneration at degree {n} (evaluate at t = {n}x):")
for x, gt in zip(xs, raw_basis(nsb, n * xs)[:, 2]):
    ref = math.comb(n, 2) * x**2 * (1 - x) ** (n - 2)  # classical B_2^n(x)
    print(f"  x={x:.3f}  basis={gt:.12f}  bernstein={ref:.12f}  diff={abs(gt-ref):.1e}")

# ------------------------------------------------------------------
# the circle benchmark basis: irrational node, uneven coefficients, weights
prob = datasets.circle_problem()
ns = prob.nodeset
a0, an = ns.domain
print("\ncircle benchmark nodes:", np.round(ns.nodes, 4))
mid, left = rational_basis_matrix(ns, prob.weights, [0.5 * (a0 + an), a0])
print("rational basis at the midpoint:", np.round(mid, 4), " sum:", mid.sum())
print("at the left endpoint:", left)

grid = np.linspace(a0, an, 4001)
table = rational_basis_matrix(ns, prob.weights, grid)
print("partition of unity on 4001 points, max |sum - 1| =",
      np.max(np.abs(table.sum(axis=1) - 1)))

# graph each basis function as a polyline (t, T_i(t)) and export as SVG
palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b"]
layers = [
    (f"T{i}", np.column_stack([grid, table[:, i]]), {"stroke": palette[i % len(palette)]})
    for i in range(ns.size)
]
write_svg(out / "basis_functions.svg", layers, title="rational basis, circle configuration")
print(f"\nwrote {out / 'basis_functions.svg'}")

#!/usr/bin/env python3
"""Helix benchmark: fitting 31 samples of a 3D helix.

A 31-node problem with binomial weights; the classical degree-30 Bezier
curve is the baseline. Prints both iteration spectra, then runs `gtbezier
example helix`, which prints the error table and exports 3D polylines as
CSV. Also stresses the log-domain basis evaluation with exponents near
195, where raw basis values overflow doubles but normalized values stay
exact.
"""

import sys

import numpy as np

from gtbezier import NodeSet, cli, datasets, iteration_spectrum, rational_basis_matrix

out = sys.argv[1] if len(sys.argv) > 1 else "demo_output"
problems, _ = datasets.example_problems("helix")

print("31 samples of (cos(pi t), sin(pi t), t/6), one at an irrational parameter\n")
for label, problem in problems.items():
    print(f"{label:7s} iteration spectrum: {iteration_spectrum(problem):.12f}")

print("\nmax residual norm by iteration count:")
if code := cli.main(["example", "helix", "--out", out]):
    sys.exit(code)

# ------------------------------------------------------------------
# log-domain stress: apply the sharpness to the raw node span so the
# exponents reach ~195; raw basis values overflow, normalized ones do not
xi = datasets.helix_parameters()
raw = NodeSet(xi, np.full(31, 1.0 / 900), 31.1)
span = xi[-1] - xi[0]
print(f"\nraw-span sharpness: largest exponent = {31.1 * span:.1f}")
grid = np.linspace(xi[0], xi[-1], 2001)
vals = rational_basis_matrix(raw, datasets.helix_weights(), grid)
print("normalized basis finite:", bool(np.all(np.isfinite(vals))),
      " max |row sum - 1| =", np.max(np.abs(vals.sum(axis=1) - 1)))

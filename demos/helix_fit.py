#!/usr/bin/env python3
"""Helix benchmark: fitting 31 samples of a 3D helix.

A 31-node problem with binomial weights; the classical degree-30 Bezier
curve is the baseline. 3D polylines are exported as CSV. Also stresses
the log-domain basis evaluation with exponents near 195, where raw basis
values overflow doubles but normalized values stay exact.
"""

import sys
from pathlib import Path

import numpy as np

from gtbezier import (
    NodeSet,
    fitted_curve,
    iteration_spectrum,
    pia_run,
    rational_basis_matrix,
    sample_polyline,
)
from gtbezier import datasets
from gtbezier.export import format_error_table, make_error_table, write_points_csv

out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out.mkdir(parents=True, exist_ok=True)

problems = {"gt": datasets.helix_problem(), "bezier": datasets.helix_bezier_problem()}

print("31 samples of (cos(pi t), sin(pi t), t/6), one at an irrational parameter\n")
for label, problem in problems.items():
    print(f"{label:7s} iteration spectrum: {iteration_spectrum(problem):.12f}")

states = {label: pia_run(problem, max_iter=30) for label, problem in problems.items()}
table = make_error_table(
    tuple(problems), [states[label].error_history for label in problems],
    datasets.HELIX_CHECKPOINTS,
)
print("\nmax residual norm by iteration count:")
print(format_error_table(table, datasets.HELIX_CHECKPOINTS))

for label, problem in problems.items():
    path = out / f"helix_{label}.csv"
    write_points_csv(path, sample_polyline(fitted_curve(problem, states[label]), 601))
    print(f"wrote {path}")

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

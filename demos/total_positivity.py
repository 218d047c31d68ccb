#!/usr/bin/env python3
"""Total positivity, step by step.

Walks from a tiny collocation matrix through the power-matrix reduction
and generalized Vandermonde determinants to the randomized verification
that every collocation matrix of the rational basis is totally positive.
"""

import numpy as np

from gtbezier import NodeSet, is_totally_positive, rational_collocation_matrix, verify_ntp_suite
from gtbezier import datasets

# ------------------------------------------------------------------
# a hand-checkable 2x2 case on nodes {0, 1} (a_0 = 0, a_n = 1, l = 1): the raw
# basis beta_j(t) = c_j * t**a_j * (1 - t)**(1 - a_j) at t = 1/3, 2/3
ns, t = NodeSet([0, 1]), np.array([[1 / 3], [2 / 3]])
b = ns.coefficients * t ** ns.nodes * (1 - t) ** (1 - ns.nodes)
print("collocation matrix B at t = 1/3, 2/3:\n", b)
print("det B =", np.linalg.det(b))

# the power matrix has entries x_i^(l*(a_j - a_0)), x_i = (t_i - a_0)/(a_n - t_i);
# row/column scalings connect it to B
a = (t / (1 - t)) ** ns.nodes
print("\npower matrix A:\n", a, "\ndet A =", np.linalg.det(a))

# ------------------------------------------------------------------
# generalized Vandermonde determinants with real exponents stay positive
# entry (i, j) = t_i ** alpha_j: increasing positive t, increasing real alpha
t, alpha = np.array([0.5, 1.1, 2.0]), np.array([-0.3, 0.9, 2.2])
w = t[:, None] ** alpha
print("\ngeneralized Vandermonde (real exponents):\n", np.round(w, 4))
print("det =", np.linalg.det(w))

# ------------------------------------------------------------------
# full verdicts via minor enumeration: every minor up to 8 x 8; above that,
# consecutive windows, each a product of pivots of one Neville elimination
# per column offset
prob = datasets.circle_problem()
params = np.linspace(0.3, 2.9, 5)
c = rational_collocation_matrix(prob.nodeset, prob.weights, params)
report = is_totally_positive(c)
print("\ncircle-configuration collocation at 5 interior parameters:")
print("  is_tp =", report.is_tp)
print("  tightest minor witness:", report.witness)

helix = datasets.helix_problem()
report = is_totally_positive(
    rational_collocation_matrix(helix.nodeset, helix.weights, helix.params))
print("helix collocation (31 x 31): is_tp =", report.is_tp)

# ------------------------------------------------------------------
# randomized suite cycling the four boundary cases
suite = verify_ntp_suite(prob.nodeset, prob.weights, trials=400, seed=7)
print(f"\nrandomized verification: {suite.trials} trials, {suite.failures} failures")
print(f"worst minor seen: {suite.worst_minor:.3e} (case {suite.worst_case})")
print("conclusion:", "every sampled collocation matrix is totally positive"
      if suite.passed else "FAILURES FOUND")

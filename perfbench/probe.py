"""A machine-speed probe run between the benchmark's operations.

The two-core virtual machine this benchmark was built on runs slower by up
to half for seconds to minutes at a time, and a loop that never touches
gtbezier shows the same phases; its process CPU time slows as much as its
wall time, so the phases are not time taken from the machine but slower
execution on it. The probe is fixed work independent of gtbezier and of the
seed: pure-Python integer arithmetic and a stack of small determinants, both
on working sets of a few tens of KB, so a probe leaves the caches much as it
found them. Sampled between the operations, it sees the same phases they
do, and dividing the mean operation time by its slowdown removes most of
them (perfbench/README.md gives the figures with and without).
"""

import math
import statistics
import time

import numpy as np

# Seconds of each probe kind on the reference machine, a 2-core Intel Xeon
# VM with python 3.11, numpy 2.4 and one BLAS thread: "python" is the fastest
# tenth of 400 probes in a phase when the machine was not slowed, and
# "small_det" was set from its ratio to "python" in 400 probes taken in a
# slowed phase (1.08; it reads 0.90-0.94 in a fast one). They only fix the
# unit of the scaled metrics, reference-machine seconds: other fixed values
# would scale every result by one factor and leave spreads and the ratios
# between two commits unchanged. Changing them rescales every result.
REFERENCE_S = {"python": 2.8e-3, "small_det": 3.0e-3}


class SpeedProbe:
    def __init__(self):
        self._small = np.random.default_rng(0).random((50, 8, 8))  # 25.6 kB
        self.times = {k: [] for k in REFERENCE_S}

    def run(self):
        clock = time.perf_counter
        t0 = clock()
        s = 0
        for i in range(40_000):
            s += i * i
        t1 = clock()
        for _ in range(64):
            np.linalg.det(self._small)
        t2 = clock()
        for kind, took in zip(REFERENCE_S, (t1 - t0, t2 - t1)):
            self.times[kind].append(took)

    def run_for(self, rounds):
        for _ in range(rounds):
            self.run()
        return self

    def slowdown(self):
        """Geometric mean over the probe kinds of mean time over reference
        time: 1 on the reference machine, 1.5 when it runs a third slower."""
        ratios = [statistics.fmean(v) / REFERENCE_S[k] for k, v in self.times.items()]
        return math.prod(ratios) ** (1 / len(ratios))

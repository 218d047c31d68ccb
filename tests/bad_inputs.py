"""Bad-input tables of the library's two scalar rules: basis._index for
counts and basis._tolerance for tolerances. The tests feed a rule's whole
table to every entry point of that rule: library functions, JSON config
fields and command-line flags. pytest puts this directory on sys.path.
"""

import numpy as np

# 2**32 + 1 is bad for trials only: every other count accepts it
BAD_COUNTS = (np.nan, np.inf, -1, 2.5, "3", None, True)
BAD_TOLERANCES = (np.nan, np.inf, -1, "3", None, True)  # 2.5 is a good tolerance

# the command line reads text, and "3" is a good count and tolerance there
BAD_COUNT_FLAGS = tuple(str(v) for v in BAD_COUNTS if v != "3")
BAD_TOLERANCE_FLAGS = tuple(str(v) for v in BAD_TOLERANCES if v != "3")

"""Bad-input tables of the library's rules: basis._index for counts,
basis._tolerance for tolerances and basis._reals for arrays. The tests feed
a rule's whole table to every entry point of that rule: library functions,
JSON config fields and command-line flags. pytest puts this directory on
sys.path.
"""

import numpy as np

# 2**32 + 1 is bad for trials only: every other count accepts it
BAD_COUNTS = (np.nan, np.inf, -1, 2.5, "3", None, True)
BAD_TOLERANCES = (np.nan, np.inf, -1, "3", None, True)  # 2.5 is a good tolerance

# the command line reads text, and "3" is a good count and tolerance there
BAD_COUNT_FLAGS = tuple(str(v) for v in BAD_COUNTS if v != "3")
BAD_TOLERANCE_FLAGS = tuple(str(v) for v in BAD_TOLERANCES if v != "3")


def _with_last(good, entry):
    """A copy of good, a nested list, with its last number replaced by entry."""
    return good[:-1] + [_with_last(good[-1], entry)] if isinstance(good, list) else entry


def _wrapped(good, levels):
    """good inside levels more lists."""
    return _wrapped([good], levels - 1) if levels else good


# The array rule's table: each row makes a bad array from a good nested list
# and names the error it must raise. One level too few leaves a number, which
# is a good parameter grid.
BAD_ARRAYS = {
    "bool": (lambda good: _with_last(good, True), TypeError),
    "text": (lambda good: _with_last(good, "1"), TypeError),
    "None": (lambda good: _with_last(good, None), TypeError),
    "complex": (lambda good: _with_last(good, 1j), TypeError),
    "beyond-double": (lambda good: _with_last(good, 10**400), TypeError),
    "too-deep": (lambda good: [good], ValueError),
    # deeper than the 32 dimensions that numpy's ndarray.flat walks
    "40-too-deep": (lambda good: _wrapped(good, 40), ValueError),
    "too-shallow": (lambda good: good[0], ValueError),
    "ragged": (lambda good: _with_last(good, [1, 1]), ValueError),
    "nan": (lambda good: _with_last(good, np.nan), ValueError),
    "inf": (lambda good: _with_last(good, np.inf), ValueError),
}
BAD_JSON_ARRAYS = {row: bad for row, bad in BAD_ARRAYS.items() if row != "complex"}  # no JSON form

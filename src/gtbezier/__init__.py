"""Toric Bernstein bases on real node sets, total-positivity verification,
and progressive iterative approximation of the curves they blend."""

from .basis import (
    NodeSet,
    bernstein_equivalent_nodeset,
    log_basis_matrix,
    power_reduction,
    rational_basis_matrix,
    validate_params,
    validate_weights,
)
from .curve import GTBezierCurve, curve_points, sample_polyline
from .pia import (
    DivergenceError,
    FitProblem,
    PiaState,
    fitted_curve,
    iteration_spectrum,
    pia_run,
)
from .totalpos import (
    EXHAUSTIVE_LIMIT,
    NtpSuiteReport,
    TpReport,
    is_totally_positive,
    rational_collocation_matrix,
    verify_ntp_suite,
)

__version__ = "0.1.0"

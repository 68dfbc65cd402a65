"""Worst-case gain estimation for discrete-time LTI systems from batch data.

The package estimates the peak frequency-response magnitude (the H-infinity
norm) of a stable SISO plant purely from input/output batch experiments. The
algorithm operates the plant continuously, without resets: holding a
periodic input makes the plant act as a circulant matrix on one input period,
and a power iteration on its time-reversed (symmetric) counterpart converges
to the peak gain over the batch frequency grid. The spectral machinery to
verify it is included, and so is the model value of the classical
reset-based baseline, ``max_gain_reset_based``, for comparison.
"""

from .estimator import (
    EstimateTrace,
    EstimationError,
    PowerIterationConfig,
    iterate_reset_free,
    relative_batch_change,
    select_shift,
)
from .lifting import (
    circulant_coefficients,
    lift,
    periodic_response_matrix,
)
from .lti import (
    RationalTransferFunction,
    StateSpace,
    SystemSpecError,
    freq_response,
    hinf_peak,
    parse_system_file,
    parse_system_text,
    tf_to_ss,
)
from .plant import (
    RESET_FREE,
    new_session,
)
from .spectral import (
    circulant_eigenvalues,
    diagonalization_residual,
    max_gain_reset_based,
    reversed_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "EstimateTrace",
    "EstimationError",
    "PowerIterationConfig",
    "RESET_FREE",
    "RationalTransferFunction",
    "StateSpace",
    "SystemSpecError",
    "circulant_coefficients",
    "circulant_eigenvalues",
    "diagonalization_residual",
    "freq_response",
    "hinf_peak",
    "iterate_reset_free",
    "lift",
    "max_gain_reset_based",
    "new_session",
    "parse_system_file",
    "parse_system_text",
    "periodic_response_matrix",
    "relative_batch_change",
    "reversed_spectrum",
    "select_shift",
    "tf_to_ss",
]

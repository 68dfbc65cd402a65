"""Worst-case gain estimation for discrete-time LTI systems from batch data.

The package estimates the peak frequency-response magnitude (the H-infinity
norm) of a stable SISO plant purely from input/output batch experiments. The
algorithm operates the plant continuously, without resets: holding a
periodic input makes the plant act as a circulant matrix on one input period,
and a power iteration on its time-reversed (symmetric) counterpart converges
to the peak gain over the batch frequency grid. The spectral machinery to
verify it is included, and so is the model value of the classical
reset-based baseline, ``max_gain_reset_based``, for comparison.

``import peakgain`` loads none of its modules. A public name loads the module
that defines it when it is first used (PEP 562), so parsing and realizing a
system file loads ``peakgain.lti`` alone, while the command line front end,
``peakgain.cli``, loads all six.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    "EstimateTrace": "estimator",
    "EstimationError": "estimator",
    "PowerIterationConfig": "estimator",
    "iterate_reset_free": "estimator",
    "relative_batch_change": "estimator",
    "select_shift": "estimator",
    "circulant_coefficients": "lifting",
    "lift": "lifting",
    "periodic_response_matrix": "lifting",
    "RationalTransferFunction": "lti",
    "StateSpace": "lti",
    "SystemSpecError": "lti",
    "freq_response": "lti",
    "hinf_peak": "lti",
    "parse_system_file": "lti",
    "parse_system_text": "lti",
    "tf_to_ss": "lti",
    "RESET_FREE": "plant",
    "new_session": "plant",
    "circulant_eigenvalues": "spectral",
    "diagonalization_residual": "spectral",
    "max_gain_reset_based": "spectral",
    "reversed_spectrum": "spectral",
}
_MODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # called only for a name not yet bound here: import its module, then
    # bind the name so later lookups skip this function
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})

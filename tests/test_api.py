import peakgain

# The public surface of the package. A new export has to be added here on
# purpose; everything else stays importable from its own module.
PUBLIC_NAMES = {
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
}


def test_every_export_resolves():
    for name in peakgain.__all__:
        assert getattr(peakgain, name) is not None, name


def test_exports_are_the_frozen_public_names():
    assert len(peakgain.__all__) == len(set(peakgain.__all__))
    assert set(peakgain.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 23

"""Every count argument and every sample vector is checked where it enters."""

import re

import numpy as np
import pytest

from conftest import simulate
from peakgain import (
    RESET_FREE,
    EstimateTrace,
    PowerIterationConfig,
    RationalTransferFunction,
    circulant_eigenvalues,
    freq_response,
    hinf_peak,
    new_session,
    reversed_spectrum,
    tf_to_ss,
)
from peakgain import cli
from peakgain.estimator import UpdateRecord


def low_pass_tf():
    return RationalTransferFunction((1.0,), (1.0, -0.5))


# each count entry point: the name its errors carry, its lower bound, a valid
# value, and a call that returns what the entry point made of the count
COUNTS = {
    "grid_size": ("grid_size", 2, 11, lambda v, _: hinf_peak(low_pass_tf(), v)),
    "delay": ("delay", 0, 2,
              lambda v, _: RationalTransferFunction((1.0,), (1.0, -0.5), delay=v).delay),
    "max_updates": ("max_updates", 1, 3,
                    lambda v, _: PowerIterationConfig(max_updates=v).max_updates),
    "rng_seed": ("rng_seed", 0, 3, lambda v, _: PowerIterationConfig(rng_seed=v).rng_seed),
    "snapshot update": (
        "snapshot update", 1, 2,
        lambda v, outdir: cli.write_update_snapshots(
            EstimateTrace(updates=[UpdateRecord(np.ones(2), np.ones(2), 1.0, 1.0)] * 3),
            outdir, updates=[v])),
}


@pytest.mark.parametrize("entry", list(COUNTS))
def test_count_is_checked_at_every_entry_point(entry, tmp_path):
    name, low, good, call = COUNTS[entry]
    for bad in (2.5, 3.0, "3", None, True, low - 1):
        with pytest.raises(ValueError, match=name):
            call(bad, tmp_path)
    expected = call(good, tmp_path)
    for wrapped in (np.int64(good), np.int32(good)):
        got = call(wrapped, tmp_path)
        assert got == expected
        if isinstance(expected, int):
            assert type(got) is int


def test_count_messages():
    with pytest.raises(ValueError, match=r"^delay must be a nonnegative integer, got 2\.5$"):
        RationalTransferFunction((1.0,), (1.0, -0.5), delay=2.5)
    with pytest.raises(ValueError, match=r"^delay must be at least 0, got -1$"):
        RationalTransferFunction((1.0,), (1.0, -0.5), delay=-1)
    with pytest.raises(ValueError, match=r"^grid_size must be an integer, got '3'$"):
        hinf_peak(low_pass_tf(), "3")
    with pytest.raises(ValueError, match=r"^grid_size must be at least 2, got 1$"):
        hinf_peak(low_pass_tf(), np.int64(1))


def _session_with_noise(noise):
    return new_session(tf_to_ss(low_pass_tf()), 4, RESET_FREE, noise=lambda n: noise)


# each sample-vector entry point: the name its errors carry, the length it
# needs (None: any length), and a call that feeds it the vector
SAMPLES = {
    "input batch": ("input batch", 4,
                    lambda v: new_session(tf_to_ss(low_pass_tf()), 4, RESET_FREE).apply_batch(v)),
    "noise draw": ("noise draw", 4, lambda v: _session_with_noise(v).apply_batch(np.ones(4))),
    "x0": ("initial state", 1,
           lambda v: new_session(tf_to_ss(low_pass_tf()), 4, RESET_FREE, x0=v)),
    "simulate x0": ("initial state", 1, lambda v: simulate(tf_to_ss(low_pass_tf()), v, [1.0])),
    "simulate u": ("input", None, lambda v: simulate(tf_to_ss(low_pass_tf()), [0.0], v)),
}


@pytest.mark.parametrize("entry", list(SAMPLES))
def test_samples_are_checked_at_every_entry_point(entry):
    what, length, call = SAMPLES[entry]
    good = np.ones(length or 5)
    call(good)
    for bad in (np.nan, np.inf, -np.inf):
        vec = good.copy()
        vec[-1] = bad
        with pytest.raises(ValueError, match=f"^{what} must be finite"):
            call(vec)
    if length is not None:
        with pytest.raises(ValueError, match=f"^{what} must have length {length}, got 2$"):
            call(np.ones(2))


# each public function that takes real or complex values rather than a
# count or a sample vector: the name its errors carry, and a call that feeds
# it one non-finite value
NON_FINITE = {
    "circulant_eigenvalues": ("coefficient vector c",
                              lambda bad: circulant_eigenvalues([1.0, bad, 0.0])),
    "reversed_spectrum": ("spectrum lam", lambda bad: reversed_spectrum([bad, 1.0, 1.0])),
    "reversed_spectrum imag": ("spectrum lam",
                               lambda bad: reversed_spectrum([1.0, complex(1.0, bad), 2.0])),
    "freq_response tf": ("omega", lambda bad: freq_response(low_pass_tf(), bad)),
    "freq_response ss": ("omega",
                         lambda bad: freq_response(tf_to_ss(low_pass_tf()), np.array([0.1, bad]))),
}


@pytest.mark.parametrize("entry", list(NON_FINITE))
def test_non_finite_values_are_rejected(entry):
    name, call = NON_FINITE[entry]
    call(0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name}"):
            call(bad)


# the spectra that read an array as one vector, which a 0-d or 2-D array (a
# dense circulant included) must not pass for by being flattened
ONE_D = {
    "circulant_eigenvalues": circulant_eigenvalues,
    "reversed_spectrum": reversed_spectrum,
}


@pytest.mark.parametrize("entry", list(ONE_D))
@pytest.mark.parametrize("shape", [(), (8, 8), (1, 4)])
def test_vectors_must_be_one_dimensional(entry, shape):
    call = ONE_D[entry]
    call(np.ones(5))
    with pytest.raises(ValueError, match="1-D .*" + re.escape(f"got shape {shape}")):
        call(np.ones(shape))

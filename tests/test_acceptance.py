"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from conftest import (
    DEMO_PEAK_GAIN,
    RESET_PER_BATCH,
    LiftedReferenceSession,
    circulant,
    delayed_resonator,
    dominant_bin,
    hold_blocks,
    iterate_reading_every_batch,
    random_dc_dominant_statespace,
    random_stable_statespace,
    reversed_circulant,
    symmetric_eig_oracle,
)
from peakgain import (
    RESET_FREE,
    PowerIterationConfig,
    circulant_coefficients,
    circulant_eigenvalues,
    diagonalization_residual,
    freq_response,
    iterate_reset_free,
    lift,
    max_gain_reset_based,
    new_session,
    periodic_response_matrix,
    reversed_spectrum,
    tf_to_ss,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds:.0f}s budget: {elapsed:.1f}s"
            )
            print(f"\n{self.name}: PASS ({elapsed:.1f}s, budget {self.seconds:.0f}s)")
        return False


def demo_state_space():
    return tf_to_ss(delayed_resonator())


def demo_grid_targets(N=50):
    lam = circulant_eigenvalues(circulant_coefficients(demo_state_space(), N))
    rev = reversed_spectrum(lam)
    return lam, rev


def test_criterion_1_circulant_structure():
    with _Budget("criterion 1 (circulant structure)", 10.0):
        rng = np.random.default_rng(101)
        for trial in range(100):
            ss = random_stable_statespace(rng, n_max=6)
            N = 2 + trial % 31  # cycles through 2..32, odd and even
            M = periodic_response_matrix(lift(ss, N))
            C = circulant(circulant_coefficients(ss, N))
            bound = 1e-9 * (1.0 + np.abs(M).max())
            assert np.abs(C - M).max() < bound


def test_criterion_2_dft_diagonalization():
    with _Budget("criterion 2 (DFT diagonalization)", 5.0):
        tf = delayed_resonator()
        ss = demo_state_space()
        for N in (8, 64, 256):
            max_off, diag = diagonalization_residual(lift(ss, N))
            assert max_off < 1e-8 * (1.0 + np.abs(diag).max())
            omegas = 2.0 * np.pi * np.arange(N) / N
            expected = freq_response(tf, omegas)
            assert np.abs(diag - expected).max() < 1e-8


def test_criterion_3_reversed_spectrum_vs_jacobi():
    with _Budget("criterion 3 (reversed spectrum vs Jacobi)", 30.0):
        rng = np.random.default_rng(103)
        for trial in range(100):
            ss = random_stable_statespace(rng, n_max=6)
            N = 2 + trial % 31
            spec = circulant_coefficients(ss, N)
            predicted = np.sort(reversed_spectrum(circulant_eigenvalues(spec)))[::-1]
            solved = symmetric_eig_oracle(reversed_circulant(spec))
            scale = 1.0 + np.abs(predicted).max()
            assert np.abs(predicted - solved).max() < 1e-9 * scale


def test_criterion_4_doubling_sweep():
    with _Budget("criterion 4 (doubling sweep)", 60.0):
        ss = demo_state_space()
        schedule = [8 * 2**k for k in range(9)]  # 8 .. 2048
        reset_free = []
        reset_based = []
        for N in schedule:
            lam = circulant_eigenvalues(circulant_coefficients(ss, N))
            reset_free.append(float(np.abs(lam).max()))
            reset_based.append(max_gain_reset_based(lift(ss, N).J[:, 0]))
        # (a) a from-rest batch shorter than the dead time measures nothing
        for N, value in zip(schedule, reset_based):
            if N <= 50:
                assert value == 0.0
        # (b) nested grids: the peak over a superset of frequencies cannot
        # drop (slack covers float noise between independent evaluations)
        for prev, nxt in zip(reset_free, reset_free[1:]):
            assert nxt >= prev - 1e-9 * (1.0 + abs(prev))
        # (c) against the frozen reference gain
        rel_err_free = [abs(v - DEMO_PEAK_GAIN) / DEMO_PEAK_GAIN for v in reset_free]
        assert rel_err_free[-1] < 1e-3
        # (d) reset-free strictly better from N = 64 on
        rel_err_based = [abs(v - DEMO_PEAK_GAIN) / DEMO_PEAK_GAIN for v in reset_based]
        for N, err_f, err_b in zip(schedule, rel_err_free, rel_err_based):
            if N >= 64:
                assert err_f < err_b


def test_criterion_5_iteration_reaches_grid_peak():
    with _Budget("criterion 5 (power iteration value)", 60.0):
        ss = demo_state_space()
        N = 50
        _, rev = demo_grid_targets(N)
        target = float(rev.max())
        # transient plant, three seeds
        for seed in (0, 1, 2):
            session = new_session(ss, N, RESET_FREE)
            config = PowerIterationConfig(
                shift=2.0, max_updates=3000, convergence_tol=1e-7, rng_seed=seed,
            )
            trace = iterate_reset_free(session, config)
            assert trace.converged
            assert abs(trace.estimate - target) < 1e-3
        # idealized steady-state plant: tighter agreement, shift invariant
        estimates = []
        for shift in (0.5 * target, target, 2.0 * target):
            plant = new_session(ss, N, RESET_FREE, settled=True)
            config = PowerIterationConfig(
                shift=shift, max_updates=20000, convergence_tol=1e-9, rng_seed=0,
            )
            trace = iterate_reset_free(plant, config)
            assert trace.converged
            assert abs(trace.estimate - target) < 1e-6
            estimates.append(trace.estimate)
        assert max(estimates) - min(estimates) < 1e-6


def test_criterion_6_converged_input_hits_peak_bin():
    with _Budget("criterion 6 (dominant frequency bin)", 30.0):
        ss = demo_state_space()
        N = 50
        lam, _ = demo_grid_targets(N)
        reference_bin = dominant_bin(lam)
        for seed in range(5):
            session = new_session(ss, N, RESET_FREE)
            config = PowerIterationConfig(
                shift=2.0, max_updates=3000, convergence_tol=1e-7, rng_seed=seed,
            )
            trace = iterate_reset_free(session, config)
            assert trace.converged
            assert dominant_bin(trace.updates[-1].u) == reference_bin


def test_criterion_7_estimator_invariants():
    with _Budget("criterion 7 (estimator invariants)", 10.0):
        ss = demo_state_space()
        N = 50

        applied = []

        class LoggingSession:
            def __init__(self):
                self._inner = new_session(ss, N, RESET_FREE)
                self.N = N

            def apply_batch(self, u):
                applied.append(np.asarray(u, dtype=float).copy())
                return self._inner.apply_batch(u)

        config = PowerIterationConfig(
            shift=2.0, max_updates=40, convergence_tol=1e-30, rng_seed=0,
        )
        trace = iterate_reset_free(LoggingSession(), config)
        # input power one at every update
        for record in trace.updates:
            assert abs(float(record.u @ record.u) - N) < 1e-8
        # hold semantics: bitwise-constant input within each hold, whose
        # extent is the run of its trace rows' updateIndex, 2 to 10 batches
        holds = hold_blocks(trace, applied)
        assert len(holds) == len(trace.updates) == 40
        for block, record in zip(holds, trace.updates):
            assert 2 <= len(block) <= 10
            for u in block:
                assert np.array_equal(u, record.u)
        # the reset-based baseline, on the test-side reference plant,
        # terminates with zero on the delayed plant
        session = LiftedReferenceSession(ss, N, RESET_PER_BATCH)
        based = iterate_reading_every_batch(session, PowerIterationConfig(rng_seed=0),
                                            reset_based=True)
        assert based.zero_output
        assert based.estimate == 0.0


def test_criterion_8_top_eigenvector_reversal_symmetry():
    with _Budget("criterion 8 (eigenvector reversal symmetry)", 20.0):
        rng = np.random.default_rng(108)
        for trial in range(50):
            ss = random_dc_dominant_statespace(rng)
            N = 3 + trial % 22  # odd and even sizes
            R = reversed_circulant(circulant_coefficients(ss, N))
            values, vectors = symmetric_eig_oracle(R, return_vectors=True)
            # dominant positive and simple by construction of the family
            assert values[0] > 0.0
            if N > 1:
                assert values[0] - values[1] > 1e-9 * (1.0 + values[0])
            v = vectors[:, 0]
            v = v * np.sign(v[int(np.argmax(np.abs(v)))])  # sign normalization
            assert np.linalg.norm(v[::-1] - v) < 1e-8

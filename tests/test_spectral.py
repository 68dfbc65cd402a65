import warnings

import numpy as np
import pytest

from conftest import (
    circulant,
    delayed_resonator,
    dense_residual,
    dft_matrix,
    dominant_bin,
    flat_peak_plant,
    random_dc_dominant_statespace,
    random_stable_statespace,
    reversed_circulant,
    slow_pole,
    symmetric_eig_oracle,
)
from peakgain import (
    RationalTransferFunction,
    circulant_coefficients,
    circulant_eigenvalues,
    diagonalization_residual,
    freq_response,
    hinf_peak,
    lift,
    max_gain_reset_based,
    periodic_response_matrix,
    reversed_spectrum,
    tf_to_ss,
)
from peakgain import spectral
from peakgain.lifting import LiftedBatchSystem, impulse_response

SQRT8 = 2.0 * np.sqrt(2.0)


class TestDftMatrix:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 13, 64])
    def test_unitary(self, N):
        F = dft_matrix(N)
        assert np.abs(F.conj().T @ F - np.eye(N)).max() < 1e-10
        assert np.abs(F @ F.conj().T - np.eye(N)).max() < 1e-10


class TestCirculant:
    def test_first_column_and_shift_pattern(self):
        C = circulant([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(C[:, 0], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(C[:, 1], [4.0, 1.0, 2.0, 3.0])
        assert np.array_equal(C[:, 3], [2.0, 3.0, 4.0, 1.0])

    def test_identity_coefficient_eigenvalues(self):
        lam = circulant_eigenvalues(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.abs(lam - 1.0).max() < 1e-12

    def test_two_point_eigenvalues(self):
        lam = circulant_eigenvalues(np.array([0.0, 1.0]))
        assert np.abs(lam - np.array([1.0, -1.0])).max() < 1e-12

    def test_four_point_eigenvalues(self):
        lam = circulant_eigenvalues(np.array([1.0, 2.0, 3.0, 4.0]))
        expected = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
        assert np.abs(lam - expected).max() < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 13, 64, 257, 2048])
    def test_fft_matches_dense_dft(self, N):
        c = np.random.default_rng(N).standard_normal(N)
        lam = circulant_eigenvalues(c)
        dense = np.sqrt(N) * (dft_matrix(N) @ c)
        assert np.abs(lam - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError, match="empty coefficient vector"):
            circulant_eigenvalues([])

    def test_eigenvalues_are_frequency_response_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(2, 24))
            lam = circulant_eigenvalues(circulant_coefficients(ss, N))
            omegas = 2.0 * np.pi * np.arange(N) / N
            expected = freq_response(ss, omegas)
            assert np.abs(lam - expected).max() < 1e-9 * (1 + np.abs(expected).max())


class TestDiagonalization:
    def test_scaled_identity(self):
        # a static gain of 3 makes M = 3 I
        static_gain = tf_to_ss(RationalTransferFunction((3.0,), (1.0,)))
        max_off, diag = diagonalization_residual(lift(static_gain, 5))
        assert max_off < 1e-12
        assert np.abs(diag - 3.0).max() < 1e-12

    def test_cyclic_shift(self):
        # a pure 3-sample delay at N = 4 makes M the circulant of [0, 0, 0, 1]
        delay = tf_to_ss(RationalTransferFunction((1.0,), (1.0,), delay=3))
        max_off, diag = diagonalization_residual(lift(delay, 4))
        assert max_off < 1e-12
        assert np.abs(diag - np.array([1.0, 1.0j, -1.0, -1.0j])).max() < 1e-12

    def test_non_circulant_leaves_residual(self):
        # G moved off lift's makes M = H (I - F)^-1 G + J no circulant
        rng = np.random.default_rng(3)
        lb = lift(random_stable_statespace(rng), 6)
        G = lb.G + rng.standard_normal(lb.G.shape)
        max_off, _ = diagonalization_residual(type(lb)(F=lb.F, G=G, H=lb.H, h=lb.h))
        assert max_off > 1e-3

    @staticmethod
    def _generic_lifted(rng, N, n=3):
        # random (F, G, H, h) with ||F||_2 = 1/2: M is rank n plus a
        # lower-triangular Toeplitz matrix, and no circulant
        F = rng.standard_normal((n, n))
        F *= 0.5 / np.linalg.norm(F, 2)
        return LiftedBatchSystem(F=F, G=rng.standard_normal((n, N)),
                                 H=rng.standard_normal((N, n)), h=rng.standard_normal(N))

    @pytest.mark.parametrize("N", [1, 2, 7, 16, 33, 64, 255, 256])
    @pytest.mark.parametrize("kind", ["circulant", "generic"])
    def test_fft_matches_dense_conjugation(self, N, kind):
        # against the O(N^2) product F M F* with the dense DFT matrix
        rng = np.random.default_rng(N)
        if kind == "circulant":
            lb = lift(random_stable_statespace(rng), N)
        else:
            lb = self._generic_lifted(rng, N)
        F = dft_matrix(N)
        T = F @ periodic_response_matrix(lb) @ F.conj().T
        max_off, diag = diagonalization_residual(lb)
        scale = np.abs(T).max()
        assert np.abs(diag - np.diag(T)).max() <= 1e-12 * scale
        assert abs(max_off - np.abs(T - np.diag(np.diag(T))).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("N", [1, 2, 255, 256, 257, 600, 1024])
    def test_blocked_maximum_equals_the_unblocked_one(self, N, monkeypatch):
        # blocks of 64 rows, the last a partial one at 255, 257 and 600, give
        # bit for bit what F* M F formed as one block gives
        lb = self._generic_lifted(np.random.default_rng(N), N)
        blocked_max_off, blocked_diag = diagonalization_residual(lb)
        monkeypatch.setattr(spectral, "_RESIDUAL_ROWS", N)
        max_off, diag = diagonalization_residual(lb)
        assert blocked_max_off == max_off
        assert blocked_diag.tobytes() == diag.tobytes()

    @staticmethod
    def _lifted_systems(N):
        # the demo, the slow pole, a static gain (no state, so H X is empty)
        # and three random systems, lifted over N samples
        rng = np.random.default_rng(N)
        static_gain = tf_to_ss(RationalTransferFunction((1.8,), (1.0,)))
        systems = [tf_to_ss(delayed_resonator()), slow_pole(), static_gain]
        systems += [random_stable_statespace(rng) for _ in range(3)]
        return rng, [lift(ss, N) for ss in systems]

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 50, 51, 255, 256, 257, 513, 1024])
    def test_lifted_off_circulant_matches_dense(self, N):
        # G and h perturbed by 1e-3 of their largest entry give an M that is
        # no circulant: each block of F* M F comes from the rank-n term and
        # the Toeplitz J, and must match the full transform of the dense M
        rng, lifted = self._lifted_systems(N)
        for lb in lifted:
            G = lb.G + 1e-3 * np.abs(lb.G).max(initial=0.0) * rng.standard_normal(lb.G.shape)
            h = lb.h + 1e-3 * np.abs(lb.h).max() * rng.standard_normal(N)
            perturbed = type(lb)(F=lb.F, G=G, H=lb.H, h=h)
            max_off, diag = dense_residual(periodic_response_matrix(perturbed))
            lifted_max_off, lifted_diag = diagonalization_residual(perturbed)
            assert abs(lifted_max_off - max_off) <= 1e-12 * max_off
            assert lifted_diag.dtype == diag.dtype
            assert np.abs(lifted_diag - diag).max() <= 1e-12 * np.abs(diag).max()

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 50, 51, 255, 256, 257, 513, 1024])
    def test_lifted_residual_stays_at_rounding(self, N):
        # lift's own (F, G, H, h) make M circulant: the two terms cancel off
        # the diagonal to rounding, and the diagonal is the dense M's
        _, lifted = self._lifted_systems(N)
        for lb in lifted:
            max_off, diag = diagonalization_residual(lb)
            scale = 1.0 + np.abs(diag).max()
            assert max_off <= 1e-13 * scale
            _, dense_diag = dense_residual(periodic_response_matrix(lb))
            assert np.abs(diag - dense_diag).max() <= 1e-13 * scale

    @pytest.mark.parametrize("N", [2048, 4096])
    @pytest.mark.parametrize("ss", [tf_to_ss(delayed_resonator()), slow_pole()],
                             ids=["demo", "slow"])
    def test_lifted_residual_at_large_n(self, ss, N):
        # no dense M at these sizes: the diagonal is checked against fft(c)
        max_off, diag = diagonalization_residual(lift(ss, N))
        scale = 1.0 + np.abs(diag).max()
        assert max_off <= 1e-13 * scale
        lam = circulant_eigenvalues(circulant_coefficients(ss, N))
        assert np.abs(diag - lam).max() <= 1e-13 * scale

    def test_lifted_residual_uses_no_circulant_machinery(self, monkeypatch):
        # the residual checks lift's (F, G, H, h), so it must not lean on the
        # closed-form c or the spectrum it is there to confirm
        lifted = [lift(ss, N) for ss in (tf_to_ss(delayed_resonator()), slow_pole())
                  for N in (7, 256, 600)]
        expected = [diagonalization_residual(lb) for lb in lifted]

        def forbidden(*args, **kwargs):
            raise AssertionError("the residual called the circulant machinery")

        monkeypatch.setattr("peakgain.lifting.circulant_coefficients", forbidden)
        monkeypatch.setattr("peakgain.spectral.circulant_eigenvalues", forbidden)
        for lb, (max_off, diag) in zip(lifted, expected):
            again_max_off, again_diag = diagonalization_residual(lb)
            assert again_max_off == max_off
            assert again_diag.tobytes() == diag.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("field", ["G", "H", "h"])
    def test_non_finite_lifted_system_rejected(self, bad, row, field):
        # H[row] enters only that row of H X, and G[row] every entry of X
        # through the solve; h[0] is on the whole diagonal of J, h[-1] only
        # in its last row. At N = 600 the last block of rows is a partial one
        lb = lift(random_stable_statespace(np.random.default_rng(6)), 600)
        entries = {"G": lb.G.copy(), "H": lb.H.copy(), "h": lb.h.copy()}
        entries[field][row] = bad
        broken = type(lb)(F=lb.F, **entries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                diagonalization_residual(broken)

    @pytest.mark.parametrize("N", [8, 1], ids=["block", "diagonal"])
    def test_overflowing_product_rejected(self, N):
        # a finite lifted system whose H X overflows. At N = 8 the varying H
        # puts an inf off the diagonal, which the block's check finds; at
        # N = 1 the one entry is on the diagonal, which is checked after
        # the blocks
        H = 1e200 * np.arange(1.0, N + 1.0).reshape(N, 1)
        lb = LiftedBatchSystem(F=np.zeros((1, 1)), G=np.full((1, N), 1e200), H=H,
                               h=np.zeros(N))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                diagonalization_residual(lb)

    def test_empty_matrix_rejected(self):
        empty = LiftedBatchSystem(F=np.zeros((0, 0)), G=np.zeros((0, 0)),
                                  H=np.zeros((0, 0)), h=np.zeros(0))
        with pytest.raises(ValueError, match="empty matrix"):
            diagonalization_residual(empty)

    def test_dense_matrix_rejected(self):
        # the residual reads a lifted system; a dense M, even its own, is
        # the test side's reference
        lb = lift(slow_pole(), 8)
        for M in (periodic_response_matrix(lb), np.eye(3), [[1.0]]):
            with pytest.raises(TypeError, match="LiftedBatchSystem"):
                diagonalization_residual(M)

    def test_periodic_response_diagonalizes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(2, 24))
            max_off, diag = diagonalization_residual(lift(ss, N))
            assert max_off < 1e-8 * (1 + np.abs(diag).max())
            omegas = 2.0 * np.pi * np.arange(N) / N
            expected = freq_response(ss, omegas)
            assert np.abs(diag - expected).max() < 1e-8 * (1 + np.abs(expected).max())


def test_first_column_its_fft_and_the_diagonal_are_the_response_grid():
    # M's first column is c, and fft(c) and the diagonal of F M F* both
    # sample G(exp(j*omega)) at omega = 2*pi*m/N, with no index map
    rng = np.random.default_rng(13)
    systems = [tf_to_ss(delayed_resonator()), slow_pole()]
    systems += [random_stable_statespace(rng) for _ in range(6)]
    for ss in systems:
        for N in (1, 2, 7, 8, 50, 257):
            c = circulant_coefficients(ss, N)
            lb = lift(ss, N)
            M = periodic_response_matrix(lb)
            assert np.abs(M[:, 0] - c).max() <= 1e-12 * np.abs(c).max()
            response = freq_response(ss, 2.0 * np.pi * np.arange(N) / N)
            tol = 1e-12 * (1.0 + np.abs(response).max())
            assert np.abs(np.fft.rfft(c) - response[: N // 2 + 1]).max() <= tol
            _, diag = diagonalization_residual(lb)
            assert np.abs(diag - response).max() <= tol


class TestReversedCirculant:
    def test_two_point_identity(self):
        assert np.array_equal(reversed_circulant(np.array([0.0, 1.0])), np.eye(2))

    def test_single_coefficient_scales_reversal(self):
        R = reversed_circulant(np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(R, 2.0 * np.eye(5)[::-1])

    def test_row_pattern(self):
        R = reversed_circulant(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(R[0], [4.0, 3.0, 2.0, 1.0])
        assert np.array_equal(R[-1], [1.0, 4.0, 3.0, 2.0])
        assert np.array_equal(R, R.T)


class TestReversedSpectrum:
    def test_two_point(self):
        rev = reversed_spectrum(np.array([1.0 + 0.0j, -1.0 + 0.0j]))
        assert np.allclose(rev, [1.0, 1.0])

    def test_four_point(self):
        lam = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
        rev = reversed_spectrum(lam)
        assert np.allclose(rev, [10.0, SQRT8, 2.0, -SQRT8])

    @pytest.mark.parametrize("N", [4, 5, 6, 9])
    def test_all_ones_splits_into_sign_pairs(self, N):
        lam = circulant_eigenvalues(np.eye(N)[0])
        rev = reversed_spectrum(lam)
        expected = np.ones(N)
        expected[(N + 1) // 2 :] = -1.0
        if N % 2 == 0:
            expected[N // 2] = -1.0
        assert np.allclose(rev, expected)

    def test_magnitudes_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(int(rng.integers(2, 33)))
            lam = circulant_eigenvalues(a)
            rev = reversed_spectrum(lam)
            assert np.allclose(np.sort(np.abs(rev)), np.sort(np.abs(lam)), atol=1e-9)

    @pytest.mark.parametrize("lam, message", [
        ([], "empty spectrum"),
        (np.empty(0, dtype=complex), "empty spectrum"),
        (np.ones((2, 2)), "expected a 1-D spectrum, got shape (2, 2)"),
    ], ids=["empty-list", "empty-array", "2-d"])
    def test_rejections_are_named(self, lam, message):
        with pytest.raises(ValueError) as raised:
            reversed_spectrum(lam)
        assert str(raised.value) == message

    def test_complex_dc_entry_diagnosed(self):
        with pytest.raises(ValueError, match="lambda_0"):
            reversed_spectrum(np.array([1.0 + 0.5j, 0.0j]))

    def test_complex_half_rate_entry_diagnosed(self):
        with pytest.raises(ValueError, match="lambda_2"):
            reversed_spectrum(np.array([1.0, 0.3 + 0.1j, 2.0 + 1.0j, 0.3 - 0.1j]))


class TestJacobiOracle:
    def test_diagonal_input_sorted(self):
        w = symmetric_eig_oracle(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [3.0, 2.0, 1.0])

    def test_two_by_two_exchange(self):
        w = symmetric_eig_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0], atol=1e-12)

    def test_matches_reversed_spectrum(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(16)
        w = symmetric_eig_oracle(reversed_circulant(c))
        rev = np.sort(reversed_spectrum(circulant_eigenvalues(c)))[::-1]
        assert np.abs(w - rev).max() < 1e-9 * (1 + np.abs(rev).max())

    def test_eigenvectors_satisfy_definition(self):
        rng = np.random.default_rng(7)
        S = rng.standard_normal((12, 12))
        S = 0.5 * (S + S.T)
        w, V = symmetric_eig_oracle(S, return_vectors=True)
        assert np.abs(S @ V - V * w).max() < 1e-8 * (1 + np.abs(w).max())
        assert np.abs(V.T @ V - np.eye(12)).max() < 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eig_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_cap_diagnosed(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RuntimeError, match="sweeps"):
            symmetric_eig_oracle(S, max_sweeps=0)

    def test_matches_reversed_spectrum_across_sizes(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            ss = random_stable_statespace(rng)
            N = 2 + trial % 31
            spec = circulant_coefficients(ss, N)
            w = symmetric_eig_oracle(reversed_circulant(spec))
            rev = np.sort(reversed_spectrum(circulant_eigenvalues(spec)))[::-1]
            assert np.abs(w - rev).max() < 1e-9 * (1 + np.abs(rev).max())


class TestResetBasedGain:
    def test_zero_matrix(self):
        assert max_gain_reset_based(np.zeros(6)) == 0.0
        assert max_gain_reset_based(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("h", [np.zeros(6), np.arange(1.0, 9.0), lift(slow_pole(), 50).h],
                             ids=["zero", "ramp", "slow-pole"])
    def test_the_gain_is_a_python_float(self, h):
        # a numpy scalar in the bisection would make the gain np.float64,
        # which prints as np.float64(...) under numpy 2
        assert type(max_gain_reset_based(h)) is float

    def test_scaled_identity(self):
        h = np.zeros(8)
        h[0] = 2.0
        assert max_gain_reset_based(h) == pytest.approx(2.0, abs=1e-12)

    def test_delayed_resonator_sees_nothing(self):
        h = impulse_response(tf_to_ss(delayed_resonator()), 50)
        assert max_gain_reset_based(h) == 0.0

    def test_equals_largest_singular_value(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(2, 33))
            J = lift(ss, N).J
            expected = float(np.linalg.svd(J, compute_uv=False)[0])
            gain = max_gain_reset_based(J[:, 0])
            assert gain == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_oracle_and_lapack_routes_agree(self):
        random_system = random_stable_statespace(np.random.default_rng(10))
        for ss, N in ((random_system, 64), (slow_pole(), 50)):
            J = lift(ss, N).J
            via_oracle = float(np.abs(symmetric_eig_oracle(J[::-1])).max())
            assert via_oracle == pytest.approx(max_gain_reset_based(J[:, 0]), rel=1e-9)

    def test_dense_batch_matrix_rejected(self):
        with pytest.raises(ValueError, match="1-D impulse response"):
            max_gain_reset_based(lift(slow_pole(), 8).J)

    @pytest.mark.parametrize(
        "h",
        [np.float64(1.0), np.arange(9.0).reshape(3, 3), np.zeros((2, 3))],
        ids=["0-d", "square", "non-square"],
    )
    def test_not_one_dimensional_rejected(self, h):
        with pytest.raises(ValueError, match="1-D impulse response"):
            max_gain_reset_based(h)


@pytest.fixture(scope="module")
def demo_and_slow_realizations():
    return {"demo": tf_to_ss(delayed_resonator()), "slow": slow_pole()}


@pytest.fixture(scope="module")
def realizations(demo_and_slow_realizations):
    return {**demo_and_slow_realizations, "flat": flat_peak_plant()}


@pytest.fixture
def passes(monkeypatch):
    # one entry per O(k) pass over T_k: a Sturm count, a pivot list or a
    # twisted pass
    counted = []
    for name in ("_count_below", "_pivots", "_twisted"):
        def counting(*args, _pass=getattr(spectral, name)):
            counted.append(1)
            return _pass(*args)
        monkeypatch.setattr(spectral, name, counting)
    return counted


# max_gain_reset_based(impulse_response(plant, N)) at N = 257, 1024 and 2048,
# as counting every bisection level of every check gave it
PINNED_GAINS = {
    "demo": ["0x1.f39e4882b5073p+0", "0x1.f462430616975p+0", "0x1.f4698f4e1589fp+0"],
    "slow": ["0x1.09d0ada22d9a0p-6", "0x1.00697ba159f82p-4", "0x1.ec85bc2f3f447p-4"],
    "flat": ["0x1.2908e7190f35cp+0", "0x1.2908eb07b1fe0p+0", "0x1.2908eb3a85557p+0"],
}


def _dense_references(J):
    return (
        float(np.abs(np.linalg.eigvalsh(J[::-1])).max()),
        float(np.linalg.svd(J, compute_uv=False)[0]),
    )


class TestLanczosResetBasedGain:
    """The Lanczos route against the dense references it replaced."""

    @pytest.mark.parametrize(
        "plant, N",
        [(plant, N) for plant in ("demo", "slow") for N in (1, 2, 3, 51, 52, 64, 257, 1024, 2048)]
        # the flat peak certifies only after 4N + 64 steps at these N
        + [("flat", N) for N in (257, 258, 512)],
    )
    def test_matches_dense_eigensolvers(self, plant, N, realizations):
        J = lift(realizations[plant], N).J
        gain = max_gain_reset_based(J[:, 0])
        for reference in _dense_references(J):
            assert abs(gain - reference) <= 1e-12 * reference

    def test_matches_dense_eigensolvers_on_random_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(1, 300))
            J = lift(ss, N).J
            gain = max_gain_reset_based(J[:, 0])
            for reference in _dense_references(J):
                assert abs(gain - reference) <= 1e-12 * reference

    @pytest.mark.parametrize(
        "num, den, N",
        [((1.0,), (1.0, 0.5), 52), ((0.125,) * 8, (1.0,), 100)],
        ids=["pole-0.5", "moving-average"],
    )
    def test_certifies_after_the_krylov_space_is_exhausted(self, num, den, N):
        # these run past N steps, where rounding makes copies of converged
        # Ritz values and the residual bound alone stops certifying them
        J = lift(tf_to_ss(RationalTransferFunction(num, den)), N).J
        gain = max_gain_reset_based(J[:, 0])
        for reference in _dense_references(J):
            assert abs(gain - reference) <= 1e-12 * reference

    def test_reruns_are_bitwise_equal(self, demo_and_slow_realizations):
        for ss in demo_and_slow_realizations.values():
            h = impulse_response(ss, 257)
            first = np.float64(max_gain_reset_based(h)).tobytes()
            assert np.float64(max_gain_reset_based(h.copy())).tobytes() == first
            # a strided column view gives the same bits as the owned array
            column = lift(ss, 257).J[:, 0]
            assert np.float64(max_gain_reset_based(column)).tobytes() == first

    def test_sturm_count_equals_the_negative_pivots(self):
        # the count runs the pivot recurrence itself; it must count exactly
        # the negative pivots of the list, zero pivots nudged to -tiny included.
        # It must also never fall as the shift rises, the property that lets a
        # bisection skip the counts a window already decides.
        rng = np.random.default_rng(8)
        cases = [([0.0] * 6, [0.0] + [1.0] * 5, [0.0, 1.0, -1.0, 2.0])]
        for k in (1, 2, 7, 64, 600):
            diag = rng.standard_normal(k).tolist()
            squares = [0.0] + (rng.standard_normal(k - 1) ** 2).tolist()
            shifts = [*np.linspace(-4.0, 4.0, 41).tolist(), *diag[:5], 0.0, -0.0]
            cases.append((diag, squares, shifts))
        for k in (2, 5, 9, 40):
            # small integers: exact zero pivots at integer and half-integer shifts
            diag = rng.integers(-2, 3, k).astype(float).tolist()
            squares = [0.0] + rng.integers(0, 3, k - 1).astype(float).tolist()
            cases.append((diag, squares, np.arange(-8.0, 8.25, 0.25).tolist()))
        for k in (3, 30, 300):
            # every floating-point shift within 40 ulps of each eigenvalue
            diag = rng.standard_normal(k).tolist()
            squares = [0.0] + (rng.standard_normal(k - 1) ** 2).tolist()
            T = np.diag(diag) + np.diag(np.sqrt(squares[1:]), 1) + np.diag(np.sqrt(squares[1:]), -1)
            shifts = []
            for eigenvalue in np.linalg.eigvalsh(T):
                x = float(eigenvalue)
                for _ in range(40):
                    x = np.nextafter(x, -np.inf)
                for _ in range(80):
                    shifts.append(x)
                    x = np.nextafter(x, np.inf)
            cases.append((diag, squares, shifts))
        for diag, squares, shifts in cases:
            for x in shifts:
                pivots = spectral._pivots(diag, squares, x)
                expected = int(np.count_nonzero(np.less(pivots, 0.0)))
                assert spectral._count_below(diag, squares, x) == expected
            counts = [spectral._count_below(diag, squares, x) for x in sorted(shifts)]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("N", [3, 64, 257, 600])
    def test_gain_is_bitwise_that_of_the_pivot_list_count(self, N, monkeypatch,
                                                          demo_and_slow_realizations):
        def count_from_pivots(diag, squares, x):
            return np.count_nonzero(np.less(spectral._pivots(diag, squares, x), 0.0))

        columns = [impulse_response(ss, N) for ss in demo_and_slow_realizations.values()]
        gains = [max_gain_reset_based(h) for h in columns]
        monkeypatch.setattr(spectral, "_count_below", count_from_pivots)
        expected = [max_gain_reset_based(h) for h in columns]
        assert [g.hex() for g in gains] == [g.hex() for g in expected]

    def test_windows_change_no_bit(self, monkeypatch, realizations):
        # a check counts only the bisection midpoints inside its window; with
        # the window the whole real line, it counts every one as before
        rng = np.random.default_rng(24)
        columns = [impulse_response(ss, N) for ss in realizations.values() for N in (64, 257, 512)]
        columns += [impulse_response(realizations[plant], 2048) for plant in ("demo", "slow")]
        # N log-uniform in [8, 1024]
        columns += [impulse_response(random_stable_statespace(rng), int(2.0 ** rng.uniform(3.0, 10.0)))
                    for _ in range(40)]
        gains = [max_gain_reset_based(h) for h in columns]
        monkeypatch.setattr(spectral, "_window", lambda *args: (-np.inf, np.inf))
        full = [max_gain_reset_based(h) for h in columns]
        assert [g.hex() for g in gains] == [g.hex() for g in full]

    def test_windows_hold_the_ends(self, monkeypatch):
        # on tridiagonals with exact zero pivots, clustered and underflowing
        # entries, and from starts far from the ends, each window is bounded
        # by counts on the right sides, and the ends from the Gershgorin
        # start and from every other start are those of the bisection that
        # counts every level
        rng = np.random.default_rng(25)
        cases = []
        for trial in range(200):
            k = int(rng.integers(1, 40))
            diag = rng.standard_normal(k)
            squares = rng.standard_normal(k - 1) ** 2
            if trial % 4 == 1:
                diag, squares = rng.integers(-2, 3, k), rng.integers(0, 3, k - 1)
            elif trial % 4 == 2:
                diag, squares = 1.0 + 1e-12 * diag, 1e-20 * squares
            elif trial % 4 == 3:
                squares = 1e-300 * squares
            cases.append((diag.astype(float).tolist(), [0.0] + squares.astype(float).tolist()))
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_window", lambda *args: (-np.inf, np.inf))
            full = [spectral._extreme_eigenvalues(diag, squares) for diag, squares in cases]
        for (diag, squares), ends in zip(cases, full):
            k = len(diag)
            assert spectral._extreme_eigenvalues(diag, squares) == ends
            width = 1e-300 + np.finfo(float).eps * max(map(abs, ends))
            for start in (ends, [ends[0] - 1.0, ends[1] + 1.0], [0.0, 0.0], [diag[0]] * 2):
                assert spectral._extreme_eigenvalues(diag, squares, start) == ends
                for end, index in enumerate((1, k)):
                    lo, hi = spectral._window(diag, squares, end, start[end], width)
                    assert lo == -np.inf or spectral._count_below(diag, squares, lo) < index
                    assert hi == np.inf or spectral._count_below(diag, squares, hi) >= index

    @pytest.mark.parametrize("steps", [0, 2])
    def test_an_unconverged_iteration_costs_at_most_two_counts(self, monkeypatch, steps):
        # a Rayleigh quotient iteration cut short leaves its value unconverged:
        # the window takes one count on either side of it at most, a side that
        # count does not close stays open, and each end then costs no more
        # than the bisection that counts every level and two counts
        rng = np.random.default_rng(27)
        counts = []

        def counted(diag, squares, x, _count=spectral._count_below):
            counts.append(1)
            return _count(diag, squares, x)

        monkeypatch.setattr(spectral, "_count_below", counted)
        monkeypatch.setattr(spectral, "_RQI_STEPS", steps)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            diag = rng.standard_normal(k).tolist()
            squares = [0.0] + (rng.standard_normal(k - 1) ** 2).tolist()
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_window", lambda *args: (-np.inf, np.inf))
                counts.clear()
                full = spectral._extreme_eigenvalues(diag, squares)
                every_level = len(counts)
            counts.clear()
            assert spectral._extreme_eigenvalues(diag, squares) == full
            assert len(counts) <= every_level + 4
            width = np.finfo(float).eps * max(map(abs, full))
            for end, index in enumerate((1, k)):
                counts.clear()
                lo, hi = spectral._window(diag, squares, end, 0.0, width)
                assert len(counts) <= 2
                assert lo == -np.inf or spectral._count_below(diag, squares, lo) < index
                assert hi == np.inf or spectral._count_below(diag, squares, hi) >= index

    def test_twisted_pass_matches_the_twisted_factorization(self):
        # gamma_r, ||z||^2, z_k^2 and the count of one twisted pass against a
        # dense solve of (T - x I) z = gamma_r e_r with z_r = 1, at both ends
        # and at the chosen r, where |gamma_r| is smallest
        rng = np.random.default_rng(26)
        for k in (1, 2, 3, 8, 50):
            diag = rng.standard_normal(k).tolist()
            squares = [0.0] + (rng.standard_normal(k - 1) ** 2).tolist()
            T = np.diag(diag) + np.diag(np.sqrt(squares[1:]), 1) + np.diag(np.sqrt(squares[1:]), -1)
            for x in (-0.7, 0.1, 1.3):
                inverse = np.linalg.inv(T - x * np.eye(k))
                chosen = spectral._twisted(diag, squares, x)
                r = chosen[0]
                assert r == int(np.argmax(np.abs(np.diag(inverse))))
                assert spectral._twisted(diag, squares, x, r) == chosen
                for at in {0, r, k - 1}:
                    z = inverse[:, at] / inverse[at, at]
                    twisted_at, gamma, norm2, last, count = spectral._twisted(diag, squares, x, at)
                    assert twisted_at == at
                    assert gamma == pytest.approx(1.0 / inverse[at, at], rel=1e-9)
                    assert norm2 == pytest.approx(z @ z, rel=1e-9)
                    assert last == pytest.approx(z[-1] ** 2, rel=1e-9)
                    assert count == np.count_nonzero(np.linalg.eigvalsh(T) < x)

    def test_demo_checks_take_at_most_520_passes(self, passes, realizations):
        # every O(k) pass over T_k at N = 2048: counting every bisection level
        # of every check takes 896; the windows leave 340
        max_gain_reset_based(impulse_response(realizations["demo"], 2048))
        assert len(passes) <= 520

    def test_the_first_check_is_windowed_too(self, passes, realizations):
        # the slow pole certifies at its first check: 108 passes at N = 2048
        # when it counts every level, 36 with its window
        max_gain_reset_based(impulse_response(realizations["slow"], 2048))
        assert len(passes) <= 40

    def test_flat_plant_first_check_leaves_unconverged_ends_open(self, passes, monkeypatch,
                                                                     realizations):
        # the flat plant's first check (k = 32) ends both Rayleigh quotient
        # iterations unconverged; stepping outward from them to close its
        # windows took 172 passes, 509 in all at N = 2048, where an open
        # window leaves 137 and 474
        checks = []

        def counted(*args, _ends=spectral._extreme_eigenvalues):
            before = len(passes)
            ends = _ends(*args)
            checks.append(len(passes) - before)
            return ends

        monkeypatch.setattr(spectral, "_extreme_eigenvalues", counted)
        max_gain_reset_based(impulse_response(realizations["flat"], 2048))
        assert checks[0] <= 140
        assert len(passes) <= 480

    @pytest.mark.parametrize("plant", ["demo", "slow", "flat"])
    def test_gains_are_pinned_to_the_bit(self, plant, realizations):
        gains = [max_gain_reset_based(impulse_response(realizations[plant], N)) for N in (257, 1024, 2048)]
        assert [gain.hex() for gain in gains] == PINNED_GAINS[plant]

    def test_checks_close_every_round_and_raise_after_three(self, monkeypatch):
        # with no certificate the iteration checks at the end of each round of
        # 4N + 64 steps as well as on its schedule, and raises after three
        checked = []

        def never(diag, *args):
            checked.append(len(diag))
            return False

        monkeypatch.setattr(spectral, "_certified", never)
        N = 8
        with pytest.raises(RuntimeError, match=f"within {3 * (4 * N + 64)} steps"):
            max_gain_reset_based(impulse_response(slow_pole(), N))
        rounds = [4 * N + 64, 2 * (4 * N + 64), 3 * (4 * N + 64)]
        assert set(rounds) <= set(checked)
        assert checked[:3] == [8, 40, 72]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            max_gain_reset_based(np.array([bad, 0.0]))
        h = np.zeros(3)
        h[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            max_gain_reset_based(h)


class TestEigenvectorReversalSymmetry:
    def test_dc_dominant_top_eigenvector_is_reversal_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ss = random_dc_dominant_statespace(rng)
            N = int(rng.integers(3, 25))
            R = reversed_circulant(circulant_coefficients(ss, N))
            w, V = symmetric_eig_oracle(R, return_vectors=True)
            assert w[0] > 0 and w[0] - w[1] > 1e-9 * (1 + abs(w[0]))
            v = V[:, 0]
            assert np.linalg.norm(v[::-1] - v) < 1e-8

    def test_interior_peak_breaks_the_symmetry(self):
        # symmetry of the top eigenvector holds exactly when the dominant
        # response sample is real positive (peak at frequency zero, say); a
        # resonance away from the grid's real axis rotates the eigenvector
        # within its frequency pair, so reversal changes it
        ss = tf_to_ss(delayed_resonator())
        R = reversed_circulant(circulant_coefficients(ss, 50))
        w, V = symmetric_eig_oracle(R, return_vectors=True)
        v = V[:, 0]
        assert w[0] - w[1] > 1e-6
        mismatch = min(
            np.linalg.norm(v[::-1] - v), np.linalg.norm(v[::-1] + v)
        )
        assert mismatch > 1e-3


class TestTopOfSpectrum:
    def test_reversed_top_equals_peak_magnitude_generically(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(30):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(3, 25))
            lam = circulant_eigenvalues(circulant_coefficients(ss, N))
            rev = reversed_spectrum(lam)
            peak = int(np.argmax(np.abs(lam)))
            interior = 0 < peak < N / 2 or 0 < N - peak < N / 2
            at_dc_positive = np.abs(lam).argmax() == 0 and lam[0].real > 0
            if interior or at_dc_positive:
                assert rev.max() == pytest.approx(np.abs(lam).max(), rel=1e-12)
                checked += 1
        assert checked > 10

    def test_demo_plant_grid_peak_tracks_oracle(self):
        tf = delayed_resonator()
        lam = circulant_eigenvalues(circulant_coefficients(tf_to_ss(tf), 50))
        rev_top = reversed_spectrum(lam).max()
        oracle, _ = hinf_peak(tf)
        # only frequency discretization separates the two at this batch length
        assert abs(rev_top - oracle) / oracle < 0.05
        assert rev_top <= oracle + 1e-12


class TestDominantBin:
    def test_pure_tone_signal(self):
        N = 32
        k = np.arange(N)
        u = np.cos(2.0 * np.pi * 3 * k / N + 0.4)
        assert dominant_bin(u) == 3

    def test_spectrum_input_and_tie_break(self):
        lam = np.array([1.0, 5.0, 5.0, 5.0, 1.0, 5.0])  # folded ties at 1, 2, 3
        assert dominant_bin(lam.astype(complex)) == 1

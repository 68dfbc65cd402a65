import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DEMO_PEAK_GAIN,
    DEMO_PEAK_OMEGA,
    delayed_resonator,
    flat_peak_plant,
    impulse_by_long_division,
    random_stable_tf,
    simulate,
    slow_pole_tf,
)
from peakgain import (
    RationalTransferFunction,
    StateSpace,
    SystemSpecError,
    circulant_coefficients,
    freq_response,
    hinf_peak,
    parse_system_text,
    tf_to_ss,
)
from peakgain import lti


def spectral_radius(A):
    """The converged Gelfand estimate, the spectral radius the stability check decides by."""
    return lti._gelfand(A, 0.0)


def impulse_response(ss, count):
    u = np.zeros(count)
    u[0] = 1.0
    y, _ = simulate(ss, np.zeros(ss.n), u)
    return y


class TestRealization:
    def test_static_gain(self):
        ss = tf_to_ss(RationalTransferFunction((3.5,), (1.0,)))
        assert ss.n == 0
        assert ss.D == 3.5
        assert ss.A.shape == (0, 0) and ss.B.shape == ss.C.shape == (0,)
        assert hinf_peak(ss, 101) == (3.5, 0.0)
        assert np.allclose(impulse_response(ss, 4), [3.5, 0.0, 0.0, 0.0])

    def test_unit_delay(self):
        ss = tf_to_ss(RationalTransferFunction((0.0, 1.0), (1.0,)))
        assert np.allclose(impulse_response(ss, 4), [0.0, 1.0, 0.0, 0.0])

    def test_delayed_resonator_dead_time(self):
        ss = tf_to_ss(delayed_resonator())
        h = impulse_response(ss, 60)
        assert np.all(h[:51] == 0.0)
        assert h[51] == pytest.approx(0.5, abs=1e-15)

    def test_matches_long_division(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            tf = random_stable_tf(rng)
            count = 3 * (max(len(tf.num), len(tf.den)) + tf.delay + 1)
            ss = tf_to_ss(tf)
            expected = impulse_by_long_division(tf, count)
            got = impulse_response(ss, count)
            assert np.abs(got - expected).max() < 1e-10 * (1 + np.abs(expected).max())

    def test_unstable_denominator_rejected_with_magnitudes(self):
        with pytest.raises(ValueError, match=r"pole magnitudes.*2"):
            RationalTransferFunction((1.0,), (1.0, -2.0))

    def test_poles_on_the_unit_circle_rejected(self):
        # a pair at angle 0.3 on the unit circle: 2 cos 0.3 = 1.910672978251212,
        # and the computed roots round to just below magnitude 1
        den = (1.0, -1.910672978251212, 1.0)
        assert np.abs(np.roots(den)).max() < 1.0
        with pytest.raises(ValueError, match=r"pole magnitudes not < 1: 1, 1$"):
            RationalTransferFunction((1.0,), den)

    def test_delay_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            RationalTransferFunction((1.0,), (1.0,), delay=-1)

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTransferFunction((1.0,), (0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["num", "den"])
    def test_non_finite_coefficient_rejected(self, name, bad):
        coeffs = {"num": [1.0, 0.5], "den": [1.0, -0.5]}
        coeffs[name][1] = bad
        with pytest.raises(ValueError, match="non-finite coefficient in num"):
            RationalTransferFunction(coeffs["num"], coeffs["den"])

    @pytest.mark.parametrize("delay", [2.5, True, np.float64(3.7), np.float64(3.0), "2"])
    def test_non_integral_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="delay must be a nonnegative integer"):
            RationalTransferFunction((1.0,), (1.0, -0.5), delay=delay)

    def test_numpy_integer_delay_accepted(self):
        tf = RationalTransferFunction((1.0,), (1.0, -0.5), delay=np.int64(3))
        assert tf.delay == 3 and type(tf.delay) is int


class TestSimulate:
    def test_hand_recursion(self):
        ss = StateSpace([[0.5]], [1.0], [1.0], 0.0)
        y, x_final = simulate(ss, [0.0], [1.0, 0.0, 0.0])
        assert np.allclose(y, [0.0, 1.0, 0.5])
        assert x_final[0] == pytest.approx(0.25)

    def test_zero_input(self):
        ss = StateSpace([[0.3, 0.1], [0.0, -0.4]], [1.0, 2.0], [1.0, 1.0], 0.7)
        y, x_final = simulate(ss, np.zeros(2), np.zeros(5))
        assert np.all(y == 0.0) and np.all(x_final == 0.0)

    def test_static_gain(self):
        ss = tf_to_ss(RationalTransferFunction((2.0,), (1.0,)))
        y, _ = simulate(ss, [], [1.0, 2.0, 3.0])
        assert np.allclose(y, [2.0, 4.0, 6.0])

    def test_chaining_is_bitwise(self):
        rng = np.random.default_rng(7)
        ss = tf_to_ss(random_stable_tf(rng))
        u = rng.standard_normal(64)
        split = 23
        y_full, x_full = simulate(ss, np.zeros(ss.n), u)
        y1, x_mid = simulate(ss, np.zeros(ss.n), u[:split])
        y2, x_end = simulate(ss, x_mid, u[split:])
        assert np.array_equal(np.concatenate([y1, y2]), y_full)
        assert np.array_equal(x_end, x_full)

    def test_dimension_mismatch(self):
        ss = StateSpace([[0.5]], [1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            simulate(ss, [0.0, 0.0], [1.0])


class TestFreqResponse:
    def test_static_gain(self):
        tf = RationalTransferFunction((4.2,), (1.0,))
        for omega in (0.0, 1.0, 3.0):
            assert freq_response(tf, omega) == pytest.approx(4.2)
            assert freq_response(tf_to_ss(tf), omega) == pytest.approx(4.2)

    def test_unit_delay_is_all_pass(self):
        tf = RationalTransferFunction((0.0, 1.0), (1.0,))
        for omega in (0.1, 1.3, 5.0):
            value = freq_response(tf, omega)
            assert value == pytest.approx(np.exp(-1j * omega))
            assert abs(value) == pytest.approx(1.0)

    def test_delayed_resonator_at_dc(self):
        assert freq_response(delayed_resonator(), 0.0) == pytest.approx(9.0 / 11.0)

    def test_representations_agree(self):
        rng = np.random.default_rng(3)
        omegas = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
        systems = [delayed_resonator()] + [random_stable_tf(rng) for _ in range(10)]
        for tf in systems:
            ss = tf_to_ss(tf)
            diff = np.abs(freq_response(tf, omegas) - freq_response(ss, omegas))
            assert diff.max() < 1e-9

    def test_negative_frequency_wraps(self):
        tf = delayed_resonator()
        omega = 2.0 * np.pi * 10 / 50
        assert freq_response(tf, -omega) == pytest.approx(
            freq_response(tf, 2.0 * np.pi - omega)
        )


class TestGainOracle:
    def test_unit_delay(self):
        tf = RationalTransferFunction((0.0, 1.0), (1.0,))
        assert hinf_peak(tf, 64)[0] == pytest.approx(1.0, abs=1e-12)

    def test_first_order_low_pass(self):
        tf = RationalTransferFunction((1.0,), (1.0, -0.5))
        gain, omega = hinf_peak(tf, 101)
        assert gain == pytest.approx(2.0, abs=1e-10)
        assert omega == pytest.approx(0.0, abs=1e-6)

    def test_delayed_resonator_reference(self):
        gain, omega = hinf_peak(delayed_resonator())
        assert gain == pytest.approx(DEMO_PEAK_GAIN, rel=1e-13)
        assert omega == pytest.approx(DEMO_PEAK_OMEGA, abs=1e-6)

    def test_state_space_route_agrees(self):
        # both forms report the peak itself, not its mirror 2*pi - omega
        for sys_obj in (delayed_resonator(), tf_to_ss(delayed_resonator())):
            gain, omega = hinf_peak(sys_obj, 20001)
            assert gain == pytest.approx(DEMO_PEAK_GAIN, rel=1e-13)
            assert omega == pytest.approx(DEMO_PEAK_OMEGA, abs=1e-6)

    @staticmethod
    def scan_cases():
        rng = np.random.default_rng(21)
        systems = [random_stable_tf(rng) for _ in range(10)]
        return systems + [delayed_resonator(), slow_pole_tf()]

    def test_fft_grid_matches_solve_loop(self):
        for i, tf in enumerate(self.scan_cases()):
            ss = tf_to_ss(tf)
            N = 2000 + i % 2
            om = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
            # FFT bin m is the response at grid point 2*pi*m/N
            via_fft = np.fft.fft(circulant_coefficients(ss, N))
            via_solve = freq_response(ss, om)
            assert np.abs(via_fft - via_solve).max() <= 1e-12 * np.abs(via_solve).max()

    def test_state_space_scan_reports_direct_solves(self):
        for i, tf in enumerate(self.scan_cases()):
            ss = tf_to_ss(tf)
            N = 2000 + i % 2
            gain, omega = hinf_peak(ss, N)
            assert gain == abs(freq_response(ss, omega))
            grid = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
            assert gain >= np.abs(freq_response(ss, grid)).max() * (1.0 - 1e-12)
            assert gain == pytest.approx(hinf_peak(tf, N)[0], rel=1e-12)

    def test_scan_covers_zero_to_pi(self, monkeypatch):
        # the gain is even in omega: a rational scan evaluates the N // 2 + 1
        # grid points in [0, pi] in one call, a state-space scan none (its
        # grid is an FFT), and either reports omega in [0, pi] up to one
        # grid step
        calls = []
        direct = lti.freq_response

        def counted(sys_obj, omega):
            calls.append(np.size(omega))
            return direct(sys_obj, omega)

        monkeypatch.setattr(lti, "freq_response", counted)
        rng = np.random.default_rng(23)
        high_pass = RationalTransferFunction((1.0,), (1.0, 0.5))  # peak at pi
        cases = [delayed_resonator(), slow_pole_tf(), high_pass]
        for tf in cases + [random_stable_tf(rng) for _ in range(6)]:
            for N in (2000, 2001):
                for sys_obj, scanned in ((tf, [N // 2 + 1]), (tf_to_ss(tf), [])):
                    calls.clear()
                    _, omega = hinf_peak(sys_obj, N)
                    assert [size for size in calls if size > 1] == scanned
                    span = 2.0 * np.pi / N
                    assert -span <= omega <= np.pi + span

    @staticmethod
    def count_refinement(monkeypatch):
        # the omegas of the direct evaluations after the scan: scalar
        # freq_response calls on the rational route, calls of the
        # _ss_response closure on the state-space route
        calls = []
        direct, ss_direct = lti.freq_response, lti._ss_response

        def counted(sys_obj, omega):
            if np.ndim(omega) == 0:
                calls.append(omega)
            return direct(sys_obj, omega)

        def ss_counted(sys_obj):
            response = ss_direct(sys_obj)

            def counted_response(w):
                calls.append(w)
                return response(w)

            return counted_response

        monkeypatch.setattr(lti, "freq_response", counted)
        monkeypatch.setattr(lti, "_ss_response", ss_counted)
        return calls

    @pytest.mark.parametrize("N", [20001, 100001])
    def test_refinement_takes_few_evaluations(self, monkeypatch, N):
        # a smooth peak off the grid (the demo) takes at most 10 evaluations,
        # a flat top at DC (the slow pole) or at pi (the flat plant) at most 30
        calls = self.count_refinement(monkeypatch)
        demo, slow = delayed_resonator(), slow_pole_tf()
        cases = [(demo, 10), (tf_to_ss(demo), 10), (slow, 30), (tf_to_ss(slow), 30),
                 (flat_peak_plant(), 30)]
        for sys_obj, bound in cases:
            calls.clear()
            hinf_peak(sys_obj, N)
            assert 1 <= len(calls) <= bound, (sys_obj, len(calls))

    def test_refined_peak_is_an_evaluation_at_the_top(self):
        # the reported gain is the response at the reported omega, and no
        # point of a fine scan around the winning grid point beats it by
        # more than rounding
        rng = np.random.default_rng(29)
        resonance = RationalTransferFunction((1.0,), (1.0, -2.0 * 0.998 * np.cos(0.7), 0.998**2))
        rational = [delayed_resonator(), slow_pole_tf(), resonance]
        rational += [random_stable_tf(rng) for _ in range(6)]
        systems = [flat_peak_plant()] + rational + [tf_to_ss(tf) for tf in rational]
        for sys_obj in systems:
            for N in (2001, 20001):
                gain, omega = hinf_peak(sys_obj, N)
                assert gain == abs(freq_response(sys_obj, omega))
                span = 2.0 * np.pi / N
                om = np.arange(N // 2 + 1) * span
                if isinstance(sys_obj, StateSpace):
                    grid = np.fft.rfft(circulant_coefficients(sys_obj, N))
                else:
                    grid = freq_response(sys_obj, om)
                winner = om[np.argmax(np.abs(grid))]
                fine = np.linspace(winner - span, winner + span, 2001)
                top = np.abs(freq_response(sys_obj, fine)).max()
                assert gain >= top * (1.0 - 1e-13), (sys_obj, N, gain, top)

    def test_zero_system(self):
        zero = RationalTransferFunction((0.0,), (1.0, -0.5))
        for sys_obj in (zero, tf_to_ss(zero), StateSpace(np.zeros((0, 0)), [], [], 0.0)):
            for N in (2, 101):
                assert hinf_peak(sys_obj, N) == (0.0, 0.0)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            hinf_peak(delayed_resonator(), 1)

    @pytest.mark.parametrize("grid_size", [2.5, 1000.7, 1000.0, True])
    def test_non_integral_grid_rejected(self, grid_size):
        for sys_obj in (delayed_resonator(), tf_to_ss(delayed_resonator())):
            with pytest.raises(ValueError, match="integer"):
                hinf_peak(sys_obj, grid_size)

    def test_numpy_integer_grid_accepted(self):
        tf = RationalTransferFunction((1.0,), (1.0, -0.5))
        for sys_obj in (tf, tf_to_ss(tf)):
            assert hinf_peak(sys_obj, np.int64(101)) == hinf_peak(sys_obj, 101)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.2])) == pytest.approx(0.5, rel=1e-8)

    def test_zero(self):
        assert spectral_radius([[0.0]]) == 0.0

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_empty(self):
        # a 0 x 0 matrix has Frobenius norm 0, the nilpotent return
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_resonator_companion(self):
        # poles of 10 z^2 - 5 z + 6: conjugate pair with |z|^2 = 6/10
        companion = np.array([[0.5, -0.6], [1.0, 0.0]])
        assert spectral_radius(companion) == pytest.approx(np.sqrt(0.6), rel=1e-8)

    def test_random_matches_eigvals(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            A = rng.standard_normal((n, n))
            expected = float(np.max(np.abs(np.linalg.eigvals(A))))
            assert spectral_radius(A) == pytest.approx(expected, rel=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(lti, "_MAX_SQUARINGS", 1)
        with pytest.raises(RuntimeError, match="within 1 squarings"):
            spectral_radius(np.diag([0.5, 0.2]))


def rotation(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


NEAR_MARGINAL = {
    "pole-0.9999": [[0.9999]],
    "pole-1-1e-9": [[1.0 - 1e-9]],
    "pole-1-1e-13": [[1.0 - 1e-13]],
    "pole-1": [[1.0]],
    "pole-1.0000001": [[1.0000001]],
    "pole--1": [[-1.0]],
    "rotation-1": rotation(1.0, 0.3),
    "rotation-0.9999": rotation(0.9999, 0.01),
    "rotation-1-1e-9": rotation(1.0 - 1e-9, 2.0),
    "companion-0.9999": [[2 * 0.9999 * np.cos(0.01), -0.9999**2], [1.0, 0.0]],
    "jordan-0.9999": [[0.9999, 1.0], [0.0, 0.9999]],
    "jordan-1": [[1.0, 1.0], [0.0, 1.0]],
    "diag-0.9999-1": np.diag([0.9999, 1.0]),
    "non-normal-0.5": [[0.5, 100.0], [0.0, 0.5]],
}


class TestStateSpaceValidation:
    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="spectral radius"):
            StateSpace([[1.0]], [1.0], [1.0], 0.0)

    @pytest.mark.parametrize("name", list(NEAR_MARGINAL))
    def test_stability_decision_is_that_of_spectral_radius(self, name):
        # the check stops at the first bound safely below one; it must accept
        # and reject exactly what the converged spectral radius does, with
        # the same message
        A = np.asarray(NEAR_MARGINAL[name], dtype=float)
        n = A.shape[0]
        rho = spectral_radius(A)
        if rho < 1.0:
            assert StateSpace(A, np.ones(n), np.ones(n), 0.0).n == n
        else:
            message = f"unstable state matrix: spectral radius {rho:.8g} is not < 1"
            with pytest.raises(ValueError) as info:
                StateSpace(A, np.ones(n), np.ones(n), 0.0)
            assert str(info.value) == message

    def test_stability_decision_on_random_scaled_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            A = rng.standard_normal((n, n))
            A *= (1.0 + rng.choice([-1e-3, -1e-7, -1e-10, 0.0, 1e-10, 1e-7])) / max(
                float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-300)
            rho = spectral_radius(A)
            try:
                StateSpace(A, np.ones(n), np.ones(n), 0.0)
                accepted = True
            except ValueError as exc:
                assert str(exc) == f"unstable state matrix: spectral radius {rho:.8g} is not < 1"
                accepted = False
            assert accepted == (rho < 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "B", "C", "D"])
    def test_non_finite_coefficient_rejected(self, name, bad):
        coeffs = {
            "A": np.array([[0.5, 0.1], [0.0, 0.2]]),
            "B": np.array([1.0, 0.0]),
            "C": np.array([0.0, 1.0]),
            "D": np.array(0.0),
        }
        coeffs[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            StateSpace(coeffs["A"], coeffs["B"], coeffs["C"], coeffs["D"])

    def test_zero_states_accepted(self):
        # the stability check runs for every n, a static gain's n = 0 too
        # (TestRealization::test_static_gain builds one through tf_to_ss)
        assert StateSpace(np.zeros((0, 0)), [], [], -1.5).n == 0

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpace([[0.5, 0.1]], [1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            StateSpace([[0.5]], [1.0, 2.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            StateSpace([[0.5]], [1.0], [1.0, 2.0], 0.0)


class TestSystemFileFormat:
    def test_rational_form(self):
        sys_obj = parse_system_text(
            "# demo plant\nnum = 0, 5, 4\nden = 10, -5, 6\ndelay = 50\n"
        )
        assert isinstance(sys_obj, RationalTransferFunction)
        assert sys_obj.num == (0.0, 5.0, 4.0)
        assert sys_obj.den == (10.0, -5.0, 6.0)
        assert sys_obj.delay == 50

    def test_rational_form_without_delay(self):
        sys_obj = parse_system_text("num = 1\nden = 1, -0.5\n")
        assert sys_obj.delay == 0

    def test_state_space_form(self):
        sys_obj = parse_system_text(
            "A = 0.5, -0.6; 1, 0\nB = 1; 0\nC = 0.5, 0.4\nD = 0\n"
        )
        assert isinstance(sys_obj, StateSpace)
        assert sys_obj.n == 2
        assert np.allclose(sys_obj.A, [[0.5, -0.6], [1.0, 0.0]])

    def test_unknown_key_reports_line(self):
        with pytest.raises(SystemSpecError, match=r":2:"):
            parse_system_text("num = 1\nbogus = 3\nden = 1\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(SystemSpecError, match=r":1:"):
            parse_system_text("num 1, 2\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(SystemSpecError, match=r":2:.*ten"):
            parse_system_text("num = 1\nden = ten\n")

    def test_mixed_forms_rejected(self):
        with pytest.raises(SystemSpecError, match="mixes"):
            parse_system_text("num = 1\nden = 1\nA = 0.5\nB = 1\nC = 1\nD = 0\n")

    def test_missing_required_key(self):
        with pytest.raises(SystemSpecError, match="den"):
            parse_system_text("num = 1\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("delay = 2\n", "num"),
            ("den = 1\n", "num"),
            ("A = 0.5\nD = 0\n", "B"),
            ("D = 0\nC = 1\n", "A"),
            ("A = 0.5\nB = 1\nC = 1\n", "D"),
        ],
    )
    def test_first_missing_key_is_named(self, text, key):
        # the required keys are checked in the order num, den or A, B, C, D
        with pytest.raises(SystemSpecError) as raised:
            parse_system_text(text, name="p")
        assert str(raised.value) == f"p: missing required key {key!r}"

    def test_missing_key_does_not_depend_on_the_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED, so each seed runs in a
        # child process of its own
        code = (
            "from peakgain import parse_system_text\n"
            "try:\n"
            "    parse_system_text('A = 0.5\\nD = 0\\n', name='p')\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lti.__file__).resolve().parent.parent)
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout) == (0, "p: missing required key 'B'\n"), seed

    def test_duplicate_key_reports_line(self):
        with pytest.raises(SystemSpecError, match=r":2:.*duplicate"):
            parse_system_text("num = 1\nnum = 2\nden = 1\n")

    def test_scalar_d_required(self):
        with pytest.raises(SystemSpecError, match="scalar"):
            parse_system_text("A = 0.5\nB = 1\nC = 1\nD = 0, 1\n")

    def test_bad_delay_reports_line(self):
        with pytest.raises(SystemSpecError, match=r":3:.*integer"):
            parse_system_text("num = 1\nden = 1\ndelay = half\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "template",
        [
            "num = {}\nden = 1, -0.5\n",
            "num = 1\nden = 1, {}\n",
            "A = 0.5, {}; 0, 0.2\nB = 1; 0\nC = 0, 1\nD = 0\n",
            "A = 0.5\nB = {}\nC = 1\nD = 0\n",
            "A = 0.5\nB = 1\nC = {}\nD = 0\n",
            "A = 0.5\nB = 1\nC = 1\nD = {}\n",
        ],
        ids=["num", "den", "A", "B", "C", "D"],
    )
    def test_non_finite_coefficient_reports_file(self, template, bad):
        with pytest.raises(SystemSpecError, match=r"plant\.txt: .*non-finite"):
            parse_system_text(template.format(bad), name="plant.txt")

    def test_unstable_file_rejected(self):
        with pytest.raises(SystemSpecError, match="pole magnitudes"):
            parse_system_text("num = 1\nden = 1, -2\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("A = {}, 0.1; 0.2, 0.3\nB = 1; 0\nC = 0, 1\nD = 0\n", 1),
            ("A = 0.5, 0.1; 0.2, {}, 0.3\nB = 1; 0\nC = 0, 1\nD = 0\n", 1),
            ("A = 0.5, 0.1; 0.2, 0.3, {}\nB = 1; 0\nC = 0, 1\nD = 0\n", 1),
            ("A = 0.5, 0.1; 0.2, 0.3\nB = 1; {}\nC = 0, 1\nD = 0\n", 2),
            ("A = 0.5, 0.1; 0.2, 0.3\nB = 1; 0\nC = {}, 1\nD = 0\n", 3),
            ("A = 0.5, 0.1; 0.2, 0.3\nB = 1; 0\nC = 0, 1\nD = {}\n", 4),
            ("# plant\nnum = 1, {}, 2\nden = 1, -0.5\n", 2),
            ("num = 1\n\nden = 1, -0.5, {}\n", 3),
        ],
        ids=["A-start", "A-middle", "A-end", "B", "C", "D", "num", "den"],
    )
    @pytest.mark.parametrize("bad", ["x1", "1.0.0", "1e", "0x10", "one two"])
    def test_bad_entry_is_named_word_for_word(self, text, line, bad):
        # the first bad entry, stripped, with the file name and its line
        with pytest.raises(SystemSpecError) as raised:
            parse_system_text(text.format(f" \t{bad} "), name="plant.txt")
        assert str(raised.value) == f"plant.txt:{line}: not a number: {bad!r}"

    def test_first_of_several_bad_entries_is_named(self):
        with pytest.raises(SystemSpecError) as raised:
            parse_system_text("num = 1, two, 3, four\nden = 1\n", name="p")
        assert str(raised.value) == "p:1: not a number: 'two'"

    @pytest.mark.parametrize(
        "value",
        [
            "1,, 2 ,\t3,",
            ",1, ,2,\t,3",
            "1;2;;3;",
            "\t1 ,\u00a02\u2003, 3\u3000",
            # a unit separator around an entry: str.strip takes it, float alone
            # does not, and the entry is accepted as it always was
            "1\x1f, 2, \x1f3",
        ],
        ids=["blank-and-trailing", "leading-blanks", "semicolons", "tab-and-unicode-spaces",
             "unit-separator"],
    )
    def test_blank_entries_and_spaces_are_skipped(self, value):
        sys_obj = parse_system_text(f"num = {value}\nden = 1\n")
        assert sys_obj.num == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("value", ["", " , ,\t", ";", "\u00a0,"])
    def test_only_blank_entries_are_an_empty_value(self, value):
        with pytest.raises(SystemSpecError) as raised:
            parse_system_text(f"num = 1\nden = {value}\n", name="p")
        assert str(raised.value) == "p:2: empty value"

    def test_demo_realization_parses_bit_for_bit(self):
        # each entry of the realization's file text is the float of its
        # stripped piece, as a per-entry loop takes it
        ss = tf_to_ss(delayed_resonator())

        def row(values):
            return ", ".join(repr(float(v)) for v in values)

        text = (
            f"A = {'; '.join(row(r) for r in ss.A)}\n"
            f"B = {row(ss.B)}\nC = {row(ss.C)}\nD = {ss.D!r}\n"
        )
        parsed = parse_system_text(text)
        values = {}
        for line in text.splitlines():
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = [
                [float(piece.strip()) for piece in part.split(",") if piece.strip()]
                for part in value.split(";")
            ]
        for key in "ABC":
            expected = np.array(values[key], dtype=float)
            if key != "A":
                expected = expected.reshape(-1)
            got = getattr(parsed, key)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert got.tobytes() == getattr(ss, key).tobytes()

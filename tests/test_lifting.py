import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    circulant,
    delayed_resonator,
    impulse_by_long_division,
    krylov_by_sequential_loop,
    markov_by_sequential_loop,
    random_stable_statespace,
    random_stable_tf,
    simulate,
    slow_pole,
)
from peakgain import (
    RESET_FREE,
    RationalTransferFunction,
    StateSpace,
    circulant_coefficients,
    diagonalization_residual,
    lift,
    new_session,
    periodic_response_matrix,
    tf_to_ss,
)
from peakgain import lifting
from peakgain.lifting import impulse_response, lower_toeplitz


def test_lift_single_sample_blocks():
    ss = StateSpace([[0.4, 0.1], [0.0, 0.2]], [1.0, -1.0], [2.0, 1.0], 0.3)
    lb = lift(ss, 1)
    assert np.array_equal(lb.F, ss.A)
    assert np.array_equal(lb.G[:, 0], ss.B)
    assert np.array_equal(lb.H[0, :], ss.C)
    assert lb.J[0, 0] == ss.D


def test_lift_two_sample_blocks_response_pattern():
    ss = StateSpace([[0.4]], [2.0], [3.0], 0.7)
    lb = lift(ss, 2)
    cb = float(ss.C @ ss.B)
    assert np.allclose(lb.J, [[0.7, 0.0], [cb, 0.7]])
    assert np.allclose(lb.F, [[0.16]])


def test_lower_toeplitz_view_matches_definition():
    rng = np.random.default_rng(3)
    for N in range(1, 8):
        column = rng.standard_normal(N)
        expected = np.array(
            [[column[i - j] if i >= j else 0.0 for j in range(N)] for i in range(N)]
        )
        assert np.array_equal(lower_toeplitz(column), expected)


def test_lift_keeps_the_batch_response_as_its_first_column():
    rng = np.random.default_rng(4)
    for _ in range(5):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(ss.n + 1, 40))
        lb = lift(ss, N)
        markov = markov_by_sequential_loop(ss.A, ss.B, ss.C, ss.D, N)
        assert np.allclose(lb.h, markov, rtol=0.0, atol=1e-12)
        assert lb.J.tobytes() == lower_toeplitz(lb.h).tobytes()
        assert not lb.J.flags.writeable
        # J is a view of h: no field is N x N once N exceeds the state count
        assert all(np.size(getattr(lb, f.name)) < N * N for f in dataclasses.fields(lb))


def test_impulse_response_is_the_first_column_of_j():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(1, 60))
        assert np.array_equal(impulse_response(ss, N), lift(ss, N).J[:, 0])


@pytest.mark.parametrize("N", [1, 50, 513, 2048])
@pytest.mark.parametrize("plant", ["demo", "slow"])
def test_impulse_response_is_the_first_column_of_a_long_j(plant, N):
    # sweep takes h from impulse_response, analyze and the plant from lift
    ss = tf_to_ss(delayed_resonator()) if plant == "demo" else slow_pole()
    assert np.array_equal(impulse_response(ss, N), lift(ss, N).J[:, 0])


def test_impulse_response_matches_long_division():
    rng = np.random.default_rng(6)
    for _ in range(30):
        tf = random_stable_tf(rng)
        N = int(rng.integers(1, 40))
        expected = impulse_by_long_division(tf, N)
        got = impulse_response(tf_to_ss(tf), N)
        assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_circulant_coefficients_match_the_forward_loop_bitwise():
    # c_k = C A^(k-1) w for k = 1 .. N-1, then c_0 = D + C A^(N-1) w, one
    # coefficient per step; the shared Markov recursion must give the same bits
    rng = np.random.default_rng(7)
    systems = [tf_to_ss(delayed_resonator())] + [random_stable_statespace(rng) for _ in range(8)]
    for ss in systems:
        for N in (1, 2, 7, 50, 257):
            w = np.linalg.solve(np.eye(ss.n) - np.linalg.matrix_power(ss.A, N), ss.B)
            expected = np.empty(N)
            v = w
            for k in range(1, N):
                expected[k] = ss.C @ v
                v = ss.A @ v
            expected[0] = ss.D + ss.C @ v
            assert np.array_equal(circulant_coefficients(ss, N), expected)


# past its first block of 512 steps the blocked Krylov recursion may differ
# from the sequential one by this much, relative to the largest entry
BLOCKED_RTOL = 1e-11


def slow_systems():
    """Realizations whose responses outlast many 512-step blocks."""
    pair = np.real(np.poly(0.9999 * np.exp([0.3j, -0.3j])))
    return [
        tf_to_ss(delayed_resonator()),
        slow_pole(),
        tf_to_ss(RationalTransferFunction((1.0,), pair)),
        StateSpace([[-0.99995]], [1.0], [1.0], 0.0),
    ]


def test_blocked_markov_recursion_matches_the_sequential_loop():
    rng = np.random.default_rng(8)
    cases = [(ss, 100002) for ss in slow_systems()]
    cases += [(random_stable_statespace(rng), 2049) for _ in range(5)]
    for ss, count in cases:
        expected = markov_by_sequential_loop(ss.A, ss.B, ss.C, ss.D, count)
        got = impulse_response(ss, count)
        # D, then one dot per row of the sequential first block
        assert np.array_equal(got[:513], expected[:513])
        assert np.abs(got - expected).max() <= BLOCKED_RTOL * np.abs(expected).max()


def test_blocked_circulant_coefficients_match_the_sequential_loop():
    for ss in slow_systems():
        N = 20001
        w = np.linalg.solve(np.eye(ss.n) - np.linalg.matrix_power(ss.A, N), ss.B)
        g = markov_by_sequential_loop(ss.A, w, ss.C, ss.D, N + 1)
        expected = g[:N].copy()
        expected[0] += g[N]
        got = circulant_coefficients(ss, N)
        assert np.abs(got - expected).max() <= BLOCKED_RTOL * np.abs(expected).max()


def test_companion_pair_near_dc_stays_within_its_power_error():
    # the companion form of a pair at radius 0.9999 and angle 0.01 has
    # ill-conditioned powers: the rounded A^512 behind the giant steps puts
    # it about 7.2e-10 of max|h| from the sequential loop at 100,002 terms
    pair = np.real(np.poly(0.9999 * np.exp([0.01j, -0.01j])))
    ss = tf_to_ss(RationalTransferFunction((1.0,), pair))
    expected = markov_by_sequential_loop(ss.A, ss.B, ss.C, ss.D, 100002)
    got = impulse_response(ss, 100002)
    assert np.array_equal(got[:513], expected[:513])
    assert np.abs(got - expected).max() <= 2e-9 * np.abs(expected).max()


def test_markov_scan_streams_its_blocks():
    N = 100001
    for ss in (tf_to_ss(delayed_resonator()), slow_pole()):
        tracemalloc.start()
        try:
            circulant_coefficients(ss, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # h, the giant-step product and c hold about N doubles each, with no
        # factor of the state count: the demo peaks at 2.4 (N + 1) doubles
        assert peak < 3 * (N + 1) * 8


@pytest.mark.parametrize("N", [513, 1024, 2048])
def test_lift_beyond_one_block_matches_the_sequential_loops(N):
    rng = np.random.default_rng(N)
    for ss in slow_systems() + [random_stable_statespace(rng) for _ in range(3)]:
        lb = lift(ss, N)
        G = krylov_by_sequential_loop(ss.A, ss.B, N)[::-1].T
        H = krylov_by_sequential_loop(ss.A.T, ss.C, N)
        assert np.array_equal(lb.G[:, N - 512:], G[:, N - 512:])
        assert np.array_equal(lb.H[:512], H[:512])
        for got, expected in ((lb.G, G), (lb.H, H)):
            assert np.abs(got - expected).max() <= BLOCKED_RTOL * np.abs(expected).max()
        # lift hands its first Krylov block to the one Markov path
        assert np.array_equal(lb.h, impulse_response(ss, N))


def test_impulse_response_checks_its_arguments():
    ss = StateSpace([[0.4]], [1.0], [1.0], 0.0)
    with pytest.raises(TypeError):
        impulse_response(delayed_resonator(), 4)
    for N in (0, 2.5, True):
        with pytest.raises(ValueError, match="batch length"):
            impulse_response(ss, N)


def test_lift_rejects_empty_blocks():
    ss = StateSpace([[0.4]], [1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        lift(ss, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: lift(delayed_resonator(), 8), "lift expects a StateSpace"),
    (lambda: circulant_coefficients(delayed_resonator(), 8),
     "circulant_coefficients expects a StateSpace"),
    (lambda: periodic_response_matrix(slow_pole()),
     "periodic_response_matrix expects a LiftedBatchSystem"),
], ids=["lift", "circulant_coefficients", "periodic_response_matrix"])
def test_a_wrong_system_type_is_named(call, message):
    with pytest.raises(TypeError) as raised:
        call()
    assert str(raised.value) == message


def test_delayed_resonator_has_zero_single_batch_response():
    # dead time exceeds the batch, so one from-rest batch sees nothing
    lb = lift(tf_to_ss(delayed_resonator()), 50)
    assert np.all(lb.J == 0.0)
    assert np.abs(periodic_response_matrix(lb)).max() > 0.1


def test_periodic_response_of_static_gain_is_scaled_identity():
    ss = tf_to_ss(RationalTransferFunction((2.5,), (1.0,)))
    M = periodic_response_matrix(lift(ss, 6))
    assert np.allclose(M, 2.5 * np.eye(6), atol=1e-12)


def test_periodic_response_of_unit_delay_is_cyclic_shift():
    ss = tf_to_ss(RationalTransferFunction((0.0, 1.0), (1.0,)))
    c = circulant_coefficients(ss, 4)
    assert np.allclose(c, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    M = periodic_response_matrix(lift(ss, 4))
    assert np.allclose(M, circulant(c), atol=1e-14)
    # a pulse at sample 0, repeated with period 4, settles to a pulse at
    # sample 1; pinned against plain simulation below
    response = M @ [1.0, 0.0, 0.0, 0.0]
    assert np.allclose(response, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    x = np.zeros(ss.n)
    for _ in range(20):
        y, x = simulate(ss, x, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(response, y, atol=1e-12)


def test_periodic_response_is_the_plain_sum_bit_for_bit():
    # M is H X with J added in place: the same elementwise sum as H X + J,
    # in a C-contiguous array
    rng = np.random.default_rng(7)
    systems = [random_stable_statespace(rng) for _ in range(5)] + [slow_pole()]
    for ss, N in zip(systems, (1, 2, 17, 64, 300, 513)):
        lb = lift(ss, N)
        X = np.linalg.solve(np.eye(ss.n) - lb.F, lb.G)
        M = periodic_response_matrix(lb)
        assert M.flags.c_contiguous
        assert np.array_equal(M, lb.H @ X + lb.J)


def test_circulant_coefficients_of_static_gain():
    ss = tf_to_ss(RationalTransferFunction((1.8,), (1.0,)))
    c = circulant_coefficients(ss, 5)
    assert np.allclose(c, [1.8, 0.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_static_gain_has_no_state_in_any_batch_form():
    ss = tf_to_ss(RationalTransferFunction((1.8,), (1.0,)))
    assert ss.n == 0
    for N in (1, 5, 600):
        lb = lift(ss, N)
        assert lb.F.shape == (0, 0) and lb.G.shape == (0, N) and lb.H.shape == (N, 0)
        pulse = np.zeros(N)
        pulse[0] = 1.8
        assert np.array_equal(lb.h, pulse)
        assert np.array_equal(circulant_coefficients(ss, N), pulse)
        assert np.array_equal(periodic_response_matrix(lb), 1.8 * np.eye(N))


def test_circulant_matches_periodic_response():
    rng = np.random.default_rng(123)
    for trial in range(30):
        ss = random_stable_statespace(rng)
        N = 2 + trial % 31
        M = periodic_response_matrix(lift(ss, N))
        C = circulant(circulant_coefficients(ss, N))
        scale = 1.0 + np.abs(M).max()
        assert np.abs(C - M).max() < 1e-9 * scale


def test_transpose_equals_time_reversed_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(2, 17))
        J = lift(ss, N).J
        T = np.eye(N)[::-1]
        assert np.array_equal(J.T, T @ J @ T)


def test_batch_recursion_matches_sample_simulation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(2, 12))
        lb = lift(ss, N)
        batches = [rng.standard_normal(N) for _ in range(5)]
        x_batch = rng.standard_normal(ss.n)
        x_sample = x_batch.copy()
        for u in batches:
            y_batch = lb.H @ x_batch + lb.J @ u
            x_batch = lb.F @ x_batch + lb.G @ u
            y_sample, x_sample = simulate(ss, x_sample, u)
            scale = 1.0 + np.abs(y_sample).max()
            assert np.abs(y_batch - y_sample).max() < 1e-10 * scale
        assert np.abs(x_batch - x_sample).max() < 1e-10 * (1 + np.abs(x_sample).max())


def test_periodic_fixed_point():
    rng = np.random.default_rng(29)
    for _ in range(10):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(1, 9))
        lb = lift(ss, N)
        u = rng.standard_normal(N)
        x_inf = np.linalg.solve(np.eye(ss.n) - lb.F, lb.G @ u)
        residual = x_inf - (lb.F @ x_inf + lb.G @ u)
        assert np.abs(residual).max() < 1e-10 * (1 + np.abs(x_inf).max())


def test_near_marginal_stability_diagnosed():
    ss = StateSpace([[1.0 - 1e-14]], [1.0], [1.0], 0.0)
    with pytest.raises(RuntimeError, match="marginal"):
        periodic_response_matrix(lift(ss, 1))
    with pytest.raises(RuntimeError, match="marginal"):
        circulant_coefficients(ss, 1)


@pytest.mark.parametrize(
    "solve",
    [
        lambda ss: periodic_response_matrix(lift(ss, 1)),
        lambda ss: circulant_coefficients(ss, 1),
        lambda ss: diagonalization_residual(lift(ss, 1)),
    ],
    ids=["periodic_response_matrix", "circulant_coefficients", "diagonalization_residual"],
)
def test_near_singular_message_is_the_same_for_every_caller(solve):
    ss = StateSpace([[1.0 - 1e-14]], [1.0], [1.0], 0.0)
    with pytest.raises(RuntimeError) as raised:
        solve(ss)
    assert str(raised.value) == (
        "I - F is nearly singular; the state matrix is too close to marginal "
        "stability for a meaningful steady state"
    )


def test_a_small_power_needs_no_singular_values(monkeypatch):
    # ||A^256||_F of the demo is far below 1/2, which puts every singular
    # value of I - A^256 above 1/2: the guard is cleared without an SVD, and
    # the solve behind it is unchanged
    ss = tf_to_ss(delayed_resonator())
    N = 256
    assert np.linalg.norm(np.linalg.matrix_power(ss.A, N)) < 0.5
    c = circulant_coefficients(ss, N)
    M = periodic_response_matrix(lift(ss, N))

    def no_svd(*args, **kwargs):
        raise AssertionError("the fixed-point guard took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert circulant_coefficients(ss, N).tobytes() == c.tobytes()
    assert periodic_response_matrix(lift(ss, N)).tobytes() == M.tobytes()


@pytest.mark.parametrize("N", [1, 8, 50])
def test_a_large_power_keeps_the_singular_value_guard(monkeypatch, N):
    # the demo's ||A^N||_F is at least 1/2 at these N, so the guard still
    # takes the SVD of I - A^N
    ss = tf_to_ss(delayed_resonator())
    assert np.linalg.norm(np.linalg.matrix_power(ss.A, N)) >= 0.5
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    circulant_coefficients(ss, N)
    periodic_response_matrix(lift(ss, N))
    assert len(calls) == 2


def test_a_nan_power_is_rejected_before_the_singular_values(monkeypatch):
    # a NaN norm would not be below 1/2 and would reach the SVD; F is
    # checked first, and named
    def no_svd(*args, **kwargs):
        raise AssertionError("the fixed-point guard took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    F = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="^F has non-finite entries$"):
        lifting._solve_fixed_point(F, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("solve", [periodic_response_matrix, diagonalization_residual])
def test_non_finite_F_is_rejected(capfd, solve, row, bad):
    # an inf in F used to pass the singular-value guard and give a
    # non-finite M; every entry is checked before any arithmetic on F, so
    # there is no warning and nothing on stderr either
    lb = lift(random_stable_statespace(np.random.default_rng(6)), 600)
    F = lb.F.copy()
    F[row] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^F has non-finite entries$"):
            solve(dataclasses.replace(lb, F=F))
    assert capfd.readouterr().err == ""


def overflowing_chain():
    # stable (every eigenvalue is 0.5), but A^3 holds 1e450 in its corner
    A = np.diag([0.5] * 4) + np.diag([1e150] * 3, 1)
    return StateSpace(A, [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], 0.0)


@pytest.mark.parametrize("N", [8, 101])
@pytest.mark.parametrize("build", [
    lift,
    circulant_coefficients,
    lambda ss, N: new_session(ss, N, RESET_FREE),
    lambda ss, N: new_session(ss, N, RESET_FREE, settled=True),
], ids=["lift", "circulant_coefficients", "session", "settled"])
def test_an_overflowing_power_is_named_without_a_warning(capfd, build, N):
    # the chain's powers overflow float64; numpy used to warn of an invalid
    # value in matmul, and the error named an F the caller never gave
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^the powers of A up to A\^{N} overflow float64$"):
            build(overflowing_chain(), N)
    assert capfd.readouterr().err == ""

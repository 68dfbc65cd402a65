import numpy as np
import pytest

from conftest import (
    RESET_PER_BATCH,
    LiftedReferenceSession,
    SampleExactSession,
    delayed_resonator,
    random_stable_statespace,
    simulate,
    slow_pole,
)
from peakgain import (
    RESET_FREE,
    RationalTransferFunction,
    circulant_coefficients,
    lift,
    new_session,
    periodic_response_matrix,
    relative_batch_change,
    tf_to_ss,
)
from peakgain.estimator import init_input
from peakgain.plant import BatchRecord, PlantSession


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_state_rejected(bad):
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))
    with pytest.raises(ValueError, match="finite"):
        new_session(ss, 4, RESET_FREE, x0=[bad])


def test_unknown_mode_rejected():
    # the plant is never reset: the reference sessions' reset-per-batch mode
    # is unknown to the package
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0,)))
    for mode in ("warm", RESET_PER_BATCH):
        with pytest.raises(ValueError, match="unknown mode"):
            new_session(ss, 4, mode)


def test_reset_batches_are_single_batch_responses():
    # the baseline's reference plant applies the single-batch response J
    rng = np.random.default_rng(0)
    ss = random_stable_statespace(rng)
    N = 8
    J = lift(ss, N).J
    session = SampleExactSession(ss, N, RESET_PER_BATCH)
    for _ in range(4):
        u = rng.standard_normal(N)
        record = session.apply_batch(u)
        assert np.abs(record.y - J @ u).max() < 1e-12 * (1 + np.abs(J @ u).max())


def test_reset_output_is_history_independent():
    rng = np.random.default_rng(1)
    ss = random_stable_statespace(rng)
    u = rng.standard_normal(6)
    fresh = SampleExactSession(ss, 6, RESET_PER_BATCH).apply_batch(u)
    warmed = SampleExactSession(ss, 6, RESET_PER_BATCH)
    for _ in range(5):
        warmed.apply_batch(rng.standard_normal(6))
    assert np.array_equal(warmed.apply_batch(u).y, fresh.y)


def test_delayed_resonator_reset_batches_are_silent():
    # 50 samples of dead time: every reset batch at N = 50 is exact +0.0, and
    # so are the first 50 samples of a reset-free run from rest
    ss = tf_to_ss(delayed_resonator())
    rng = np.random.default_rng(2)
    for session, silent in ((LiftedReferenceSession(ss, 50, RESET_PER_BATCH), 3),
                            (new_session(ss, 50, RESET_FREE), 1),
                            (new_session(ss, 25, RESET_FREE), 2)):
        N = session.N
        for _ in range(silent):
            record = session.apply_batch(rng.standard_normal(N))
            assert record.y.tobytes() == np.zeros(N).tobytes()


def test_reset_free_static_gain_every_batch():
    ss = tf_to_ss(RationalTransferFunction((1.7,), (1.0,)))
    session = new_session(ss, 5, RESET_FREE)
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = rng.standard_normal(5)
        record = session.apply_batch(u)
        assert np.allclose(record.y, 1.7 * u)


def test_first_reset_free_batch_from_rest_matches_reset_batch():
    rng = np.random.default_rng(4)
    ss = random_stable_statespace(rng)
    u = rng.standard_normal(7)
    y_free = new_session(ss, 7, RESET_FREE).apply_batch(u).y
    y_reset = LiftedReferenceSession(ss, 7, RESET_PER_BATCH).apply_batch(u).y
    assert np.array_equal(y_free, y_reset)


def test_reset_free_state_carries_over():
    rng = np.random.default_rng(5)
    ss = random_stable_statespace(rng)
    N = 6
    session = SampleExactSession(ss, N, RESET_FREE)
    u1, u2 = rng.standard_normal(N), rng.standard_normal(N)
    y1 = session.apply_batch(u1).y
    y2 = session.apply_batch(u2).y
    y_ref, _ = simulate(ss, np.zeros(ss.n), np.concatenate([u1, u2]))
    assert np.array_equal(np.concatenate([y1, y2]), y_ref)


def demo_plant():
    return tf_to_ss(delayed_resonator())


def _worst_lifted_error(ss, N, batches, switch_every, rng, x0=None):
    """Largest per-batch max|dy| / (1 + max|y|) of the lifted session against the reference."""
    lifted = new_session(ss, N, RESET_FREE, x0=x0)
    reference = SampleExactSession(ss, N, RESET_FREE, x0=x0)
    worst = 0.0
    for j in range(batches):
        if j % switch_every == 0:
            u = rng.standard_normal(N)
        y_ref = reference.apply_batch(u).y
        y = lifted.apply_batch(u).y
        worst = max(worst, float(np.abs(y - y_ref).max() / (1.0 + np.abs(y_ref).max())))
    return worst


@pytest.mark.parametrize("switch_every", [1500, 10], ids=["held", "switching"])
@pytest.mark.parametrize(
    "plant, N",
    [(demo_plant, 50), (demo_plant, 256), (slow_pole, 50)],
    ids=["demo-N50", "demo-N256", "slow-N50"],
)
def test_lifted_session_matches_sample_exact_reference(plant, N, switch_every):
    rng = np.random.default_rng(N)
    assert _worst_lifted_error(plant(), N, 1500, switch_every, rng) <= 1e-12


def test_lifted_session_matches_reference_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(8):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(1, 40))
        x0 = rng.standard_normal(ss.n)
        assert _worst_lifted_error(ss, N, 200, 10, rng, x0=x0) <= 1e-12


class CountingNoise:
    """Seeded measurement noise that counts its draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __call__(self, n):
        self.calls += 1
        return 1e-3 * self._rng.standard_normal(n)


class FreshSettledReference:
    """Settled reference plant: every batch on a fresh settled session, so no held-input memo.

    The settled plant's state never moves, so ``_x`` stays at rest.
    """

    def __init__(self, ss, N, noise=None):
        self._ss = ss
        self._x = np.zeros(ss.n)
        self._noise = noise
        self.N = N
        self.batch_counter = 0

    def apply_batch(self, u):
        y = new_session(self._ss, self.N, RESET_FREE, noise=self._noise,
                        settled=True).apply_batch(u).y
        record = BatchRecord(j=self.batch_counter, y=y)
        self.batch_counter += 1
        return record


def twin_sessions(ss, N, settled=False, x0=None, noise_seed=None):
    """A production session and a no-memo reference over the same plant and noise.

    The reference of a transient session is ``LiftedReferenceSession``, that
    of a settled one ``FreshSettledReference``.
    """
    noises = [None, None] if noise_seed is None else [CountingNoise(noise_seed) for _ in range(2)]
    session = new_session(ss, N, RESET_FREE, x0=x0, noise=noises[0], settled=settled)
    if settled:
        return session, FreshSettledReference(ss, N, noise=noises[1])
    return session, LiftedReferenceSession(ss, N, x0=x0, noise=noises[1])


# the two kinds of session, by the ids of their cases
KINDS = pytest.mark.parametrize("settled", [False, True], ids=["reset-free", "settled"])


def apply_both(session, reference, u):
    """Apply u to both sessions; outputs and states must agree bit for bit."""
    y = session.apply_batch(u).y
    y_ref = reference.apply_batch(u).y
    assert y.tobytes() == y_ref.tobytes()
    assert session._x.tobytes() == reference._x.tobytes()
    assert session.batch_counter == reference.batch_counter
    y[:] = np.nan  # a caller may overwrite its batch; later batches must not see that
    return y_ref


@pytest.mark.parametrize(
    "plant, N, batches",
    # N + n of the 52-state demo at N = 25 and 51 is 77 and 103, not a
    # multiple of 4, so the stacked product's remainder rows are covered
    [(demo_plant, 25, 40), (demo_plant, 50, 40), (demo_plant, 51, 40),
     (demo_plant, 256, 20), (demo_plant, 2048, 8), (slow_pole, 50, 8000)],
    ids=["demo-N25", "demo-N50", "demo-N51", "demo-N256", "demo-N2048", "slow-N50"],
)
def test_held_input_is_bitwise_the_reference(plant, N, batches):
    session, reference = twin_sessions(plant(), N)
    u = np.random.default_rng(N).standard_normal(N)
    outputs = [apply_both(session, reference, u) for _ in range(batches)]
    # the state stopped moving, so the last batches repeat the held output
    assert outputs[-1].tobytes() == outputs[-2].tobytes()


@pytest.mark.parametrize("plant", [demo_plant, slow_pole], ids=["demo", "slow"])
def test_input_switches_are_bitwise_the_reference(plant):
    N = 50
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal(N), rng.standard_normal(N)
    session, reference = twin_sessions(plant(), N)
    for u_j in [u] * 12 + [v] * 12 + [u] * 3 + [v, u, v.copy(), v.copy(), u[::-1], u]:
        apply_both(session, reference, u_j)


@KINDS
def test_input_mutated_in_place_is_recomputed(settled):
    rng = np.random.default_rng(15)
    session, reference = twin_sessions(demo_plant(), 50, settled)
    u = rng.standard_normal(50)
    for change in (None, 0.5, -2.0):
        if change is not None:
            u[7] += change
            u *= change
        for _ in range(10):
            apply_both(session, reference, u)
    # the same array with its dtype set in place: the bytes are as held, the values are not
    u.dtype = np.int64
    for _ in range(2):
        apply_both(session, reference, u)


@KINDS
def test_inputs_equal_in_value_reuse_the_held_input(settled):
    ints = np.random.default_rng(16).integers(-3, 4, 50)
    session, reference = twin_sessions(demo_plant(), 50, settled)
    for u in (ints, ints.astype(float), ints.tolist(), ints.reshape(5, 10),
              ints.astype(np.float32), ints.astype(float).reshape(1, 50)):
        for _ in range(4):
            apply_both(session, reference, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@KINDS
def test_non_finite_input_after_a_held_one_still_raises(settled, bad):
    rng = np.random.default_rng(17)
    session, reference = twin_sessions(demo_plant(), 50, settled)
    u = rng.standard_normal(50)
    held = u.copy()
    for _ in range(8):
        apply_both(session, reference, u)
    poisoned = u.copy()
    poisoned[3] = bad
    with pytest.raises(ValueError, match="finite"):
        session.apply_batch(poisoned)
    u[3] = bad  # the held array itself, poisoned in place
    with pytest.raises(ValueError, match="finite"):
        session.apply_batch(u)
    assert session.batch_counter == 8
    for u_j in [held] * 3 + [rng.standard_normal(50)] * 3:
        apply_both(session, reference, u_j)


@pytest.mark.parametrize("noise_seed", [None, 18], ids=["clean", "noisy"])
@KINDS
def test_random_systems_are_bitwise_the_reference(settled, noise_seed):
    rng = np.random.default_rng(19)
    for _ in range(6):
        ss = random_stable_statespace(rng)
        N = int(rng.integers(1, 30))
        x0 = None if settled else rng.standard_normal(ss.n)
        session, reference = twin_sessions(ss, N, settled, x0=x0, noise_seed=noise_seed)
        for hold in (1, 15, 3, 40):
            u = rng.standard_normal(N)
            for _ in range(hold):
                apply_both(session, reference, u)
        if noise_seed is not None:
            # noise is drawn once per batch, also for held and settled batches
            assert session._noise.calls == session.batch_counter == 59


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@KINDS
def test_non_finite_batch_rejected_without_touching_the_session(settled, bad):
    rng = np.random.default_rng(9)
    ss = random_stable_statespace(rng)
    N = 6
    x0 = None if settled else rng.standard_normal(ss.n)
    u1, u2 = rng.standard_normal(N), rng.standard_normal(N)
    poisoned = u2.copy()
    poisoned[3] = bad
    session = new_session(ss, N, RESET_FREE, x0=x0, settled=settled)
    clean = new_session(ss, N, RESET_FREE, x0=x0, settled=settled)
    session.apply_batch(u1)
    clean.apply_batch(u1)
    with pytest.raises(ValueError, match="finite"):
        session.apply_batch(poisoned)
    assert session.batch_counter == 1
    record = session.apply_batch(u2)
    expected = clean.apply_batch(u2)
    assert record.j == expected.j == 1
    assert np.array_equal(record.y, expected.y)


def test_steady_state_plant_rejects_non_finite_batch():
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))
    plant = new_session(ss, 4, RESET_FREE, settled=True)
    with pytest.raises(ValueError, match="finite"):
        plant.apply_batch([1.0, np.nan, 0.0, 0.0])
    assert plant.batch_counter == 0


def test_held_input_settles_to_periodic_response():
    rng = np.random.default_rng(6)
    ss = random_stable_statespace(rng)
    N = 8
    u = rng.standard_normal(N)
    target = periodic_response_matrix(lift(ss, N)) @ u
    session = new_session(ss, N, RESET_FREE, x0=rng.standard_normal(ss.n))
    errors = []
    for _ in range(60):
        errors.append(np.linalg.norm(session.apply_batch(u).y - target))
    # geometric decay after the initial transient
    tail = errors[5:25]
    assert all(b <= a * 1.0000001 for a, b in zip(tail, tail[1:]))
    assert errors[-1] < 1e-8 * (1 + np.linalg.norm(target))


def test_fixed_point_start_is_settled_immediately():
    rng = np.random.default_rng(7)
    ss = random_stable_statespace(rng)
    N = 5
    u = rng.standard_normal(N)
    lb = lift(ss, N)
    x_inf = np.linalg.solve(np.eye(ss.n) - lb.F, lb.G @ u)
    session = new_session(ss, N, RESET_FREE, x0=x_inf)
    M = periodic_response_matrix(lb)
    record = session.apply_batch(u)
    assert np.abs(record.y - M @ u).max() < 1e-10 * (1 + np.abs(M @ u).max())


def test_steady_state_plant_matches_matrix_action():
    ss = tf_to_ss(RationalTransferFunction((0.0, 1.0), (1.0,)))
    plant = new_session(ss, 4, RESET_FREE, settled=True)
    record = plant.apply_batch([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(record.y, [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    assert plant.mode == RESET_FREE
    assert plant.batch_counter == 1
    # the FFT product against the dense settled response, on every plant kind
    rng = np.random.default_rng(12)
    systems = [demo_plant(), slow_pole()] + [random_stable_statespace(rng) for _ in range(4)]
    for ss in systems:
        for N in (1, 2, 7, 50, 257):
            M = periodic_response_matrix(lift(ss, N))
            plant = new_session(ss, N, RESET_FREE, settled=True)
            for _ in range(2):
                u = rng.standard_normal(N)
                expected = M @ u
                y = plant.apply_batch(u).y
                assert y.shape == (N,)
                assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()


def counted_fft(monkeypatch):
    """Count np.fft.rfft and np.fft.irfft calls from here on."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def test_settled_session_transforms_each_held_input_once(monkeypatch):
    ss = demo_plant()
    rng = np.random.default_rng(20)
    u, v = rng.standard_normal(50), rng.standard_normal(50)
    M = periodic_response_matrix(lift(ss, 50))
    plant = new_session(ss, 50, RESET_FREE, settled=True)
    calls = counted_fft(monkeypatch)
    for u_j, hold in ((u, 10), (v, 5), (u.copy(), 3), (v.tolist(), 4)):
        first = plant.apply_batch(u_j).y
        assert np.abs(first - M @ np.asarray(u_j)).max() <= 1e-12 * np.abs(first).max()
        for _ in range(hold - 1):
            assert plant.apply_batch(u_j).y.tobytes() == first.tobytes()
    # one transform pair per distinct held input, none for its repeats
    assert calls == {"rfft": 4, "irfft": 4}
    assert plant.batch_counter == 22


def test_settled_batches_are_fresh_copies():
    u = np.random.default_rng(21).standard_normal(50)
    plant = new_session(demo_plant(), 50, RESET_FREE, settled=True)
    outputs = [plant.apply_batch(u).y for _ in range(5)]
    expected = outputs[-1].copy()
    for y in outputs:
        y[:] = np.nan  # a caller may overwrite its batch
    for a, b in zip(outputs, outputs[1:]):
        assert not np.shares_memory(a, b)
    assert plant.apply_batch(u).y.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "mode, x0, reason",
    [(RESET_PER_BATCH, None, "unknown mode"), (RESET_FREE, [0.0], "settled"),
     (RESET_FREE, [1.0], "settled")],
    ids=["reset-per-batch", "zero-x0", "x0"],
)
def test_settled_session_rejects_reset_mode_and_initial_state(mode, x0, reason):
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))
    with pytest.raises(ValueError, match=reason):
        new_session(ss, 4, mode, x0=x0, settled=True)


def test_settled_session_holds_no_dense_matrix():
    # nor does a transient: J is kept as h, and G and H are N x n
    N = 256
    for settled in (True, False):
        plant = new_session(demo_plant(), N, RESET_FREE, settled=settled)
        plant.apply_batch(np.ones(N))
        arrays = [v for v in vars(plant).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.size for a in arrays) < N * N
        if settled:
            assert max(a.size for a in arrays) <= N


def test_settled_session_draws_noise_once_per_batch():
    ss = demo_plant()
    rng = np.random.default_rng(22)
    u, v = rng.standard_normal(50), rng.standard_normal(50)
    noise, replay = CountingNoise(23), CountingNoise(23)
    noisy = new_session(ss, 50, RESET_FREE, noise=noise, settled=True)
    clean = new_session(ss, 50, RESET_FREE, settled=True)
    for u_j in [u] * 6 + [v] * 4 + [u]:
        y = noisy.apply_batch(u_j).y
        assert y.tobytes() == (clean.apply_batch(u_j).y + replay(50)).tobytes()
    assert noise.calls == noisy.batch_counter == 11


@pytest.mark.parametrize(
    "draw",
    [lambda n: np.full(n, np.nan), lambda n: np.full(n, np.inf), lambda n: 0.5,
     lambda n: np.ones(1), lambda n: np.ones(n + 1), lambda n: np.ones(n - 1)],
    ids=["nan", "inf", "scalar", "length-1", "too-long", "too-short"],
)
@KINDS
def test_bad_noise_draw_rejected_without_touching_the_session(settled, draw):
    rng = np.random.default_rng(24)
    ss = random_stable_statespace(rng)
    N = 6
    u1, u2 = rng.standard_normal(N), rng.standard_normal(N)
    draws = iter([np.zeros(N), draw(N)])
    session = new_session(ss, N, RESET_FREE, noise=lambda n: next(draws, np.zeros(n)),
                          settled=settled)
    clean = new_session(ss, N, RESET_FREE, settled=settled)
    assert session.apply_batch(u1).y.tobytes() == clean.apply_batch(u1).y.tobytes()
    with pytest.raises(ValueError, match="noise draw"):
        session.apply_batch(u2)
    assert session.batch_counter == 1
    for u_j in (u2, u2, u1):
        record, expected = session.apply_batch(u_j), clean.apply_batch(u_j)
        assert record.j == expected.j
        assert record.y.tobytes() == expected.y.tobytes()


def test_session_surface_does_not_leak_the_model():
    ss = tf_to_ss(delayed_resonator())
    session = new_session(ss, 50, RESET_FREE)
    public = {name for name in vars(session) if not name.startswith("_")}
    assert public == {"N", "mode", "batch_counter"}
    plant = new_session(ss, 50, RESET_FREE, settled=True)
    public = {name for name in vars(plant) if not name.startswith("_")}
    assert public == {"N", "mode", "batch_counter"}


def test_batch_counter_and_length_validation():
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))
    session = new_session(ss, 4, RESET_FREE)
    session.apply_batch(np.ones(4))
    assert session.batch_counter == 1
    with pytest.raises(ValueError, match="length"):
        session.apply_batch(np.ones(5))
    with pytest.raises(ValueError):
        new_session(ss, 0, RESET_FREE)


@pytest.mark.parametrize(
    "entry", ["lift", "circulant_coefficients", "PlantSession", "init_input", "SteadyStatePlant"]
)
def test_batch_length_is_checked_at_every_entry_point(entry):
    ss = tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))
    # each entry point mapped to the batch length it ended up with
    build = {
        "lift": lambda N: lift(ss, N).h.shape[0],
        "circulant_coefficients": lambda N: circulant_coefficients(ss, N).shape[0],
        "PlantSession": lambda N: PlantSession(ss, N, RESET_FREE).N,
        "init_input": lambda N: init_input(N, 0).shape[0],
        "SteadyStatePlant": lambda N: new_session(ss, N, RESET_FREE, settled=True).N,
    }[entry]
    for bad in (2.5, 2.7, 3.9, 4.5, 3.0, "3", None, True, 0, -2):
        with pytest.raises(ValueError, match="batch length"):
            build(bad)
    for good in (3, np.int64(3), np.int32(3)):
        length = build(good)
        assert length == 3 and type(length) is int


def test_noise_hook_default_off_and_additive():
    rng = np.random.default_rng(8)
    ss = random_stable_statespace(rng)
    u = rng.standard_normal(6)
    clean = new_session(ss, 6, RESET_FREE).apply_batch(u).y
    noisy_session = new_session(ss, 6, RESET_FREE, noise=lambda n: np.full(n, 0.25))
    noisy = noisy_session.apply_batch(u).y
    assert np.allclose(noisy, clean + 0.25)


def test_settling_detector():
    assert relative_batch_change([1.0, 1.0], [1.0, 1.0 + 1e-12]) < 1e-8
    assert relative_batch_change([1.0, 1.0], [1.0, 1.5]) >= 1e-8
    assert relative_batch_change(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_batch_change(np.ones(3), np.zeros(3)) == np.inf
    # a 2-D array, an integer list and float32 samples give, bit for bit, the
    # change of the same samples as flat float64 arrays
    rng = np.random.default_rng(4)
    prev, curr = rng.standard_normal(6), rng.standard_normal(6)
    flat = relative_batch_change(prev, curr)
    assert relative_batch_change(prev.reshape(2, 3), curr.reshape(3, 2)) == flat
    ints_prev, ints_curr = [3, -1, 4, 1], [2, 7, -1, 8]
    assert relative_batch_change(ints_prev, ints_curr) == relative_batch_change(
        np.array(ints_prev, dtype=float), np.array(ints_curr, dtype=float))
    prev32, curr32 = prev.astype(np.float32), curr.astype(np.float32)
    assert relative_batch_change(prev32, curr32) == relative_batch_change(
        prev32.astype(float), curr32.astype(float))

import ast
import collections
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    RESET_PER_BATCH,
    LiftedReferenceSession,
    delayed_resonator,
    hold_blocks,
    iterate_reading_every_batch,
    random_stable_statespace,
    slow_pole,
)
from peakgain import (
    RESET_FREE,
    EstimateTrace,
    EstimationError,
    PowerIterationConfig,
    RationalTransferFunction,
    StateSpace,
    circulant_coefficients,
    circulant_eigenvalues,
    iterate_reset_free,
    lift,
    max_gain_reset_based,
    new_session,
    relative_batch_change,
    reversed_spectrum,
    select_shift,
    tf_to_ss,
)
from peakgain import cli, estimator
from peakgain.estimator import init_input
from peakgain.plant import BatchRecord


def low_pass():
    return tf_to_ss(RationalTransferFunction((1.0,), (1.0, -0.5)))


def reversed_top(ss, N):
    return reversed_spectrum(circulant_eigenvalues(circulant_coefficients(ss, N))).max()


class RecordingPlant:
    """Duck-typed plant exposing nothing but N and apply_batch.

    Proves the iterations run against the experiment interface alone, and
    logs every applied input for the hold-semantics checks.
    """

    def __init__(self, response, N):
        self._response = response
        self.N = N
        self.batch_counter = 0
        self.applied = []

    def apply_batch(self, u):
        u = np.asarray(u, dtype=float)
        self.applied.append(u.copy())
        record = BatchRecord(j=self.batch_counter, y=self._response(u))
        self.batch_counter += 1
        return record


class TestInitInput:
    def test_deterministic(self):
        assert np.array_equal(init_input(16, 3), init_input(16, 3))

    def test_unit_power(self):
        for n in (1, 2, 17, 128):
            u = init_input(n, 0)
            assert abs(u @ u - n) < 1e-10

    def test_seeds_differ(self):
        assert np.any(init_input(8, 0) != init_input(8, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_input(0, 0)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PowerIterationConfig(shift=0.0)
        with pytest.raises(ValueError):
            PowerIterationConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            PowerIterationConfig(max_updates=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True, np.float64(1.0)])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            PowerIterationConfig(rng_seed=seed)
        with pytest.raises(ValueError, match="rng_seed"):
            init_input(8, seed)

    def test_accepts_numpy_integer_seed(self):
        assert PowerIterationConfig(rng_seed=np.int64(3)).rng_seed == 3
        assert np.array_equal(init_input(8, np.uint8(3)), init_input(8, 3))

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_shift(self, shift):
        with pytest.raises(ValueError, match="shift"):
            PowerIterationConfig(shift=shift)

    @pytest.mark.parametrize("shift", [-1.0, -1.918966281468787, -1e-300, -0.0, -2])
    def test_rejects_non_positive_shift(self, shift):
        # the reversed spectrum comes in +-|lambda| pairs, so a negative shift
        # would steer the iteration to the negative end of it
        message = f"^shift must be positive and finite, got {re.escape(repr(shift))}$"
        with pytest.raises(ValueError, match=message):
            PowerIterationConfig(shift=shift)

    def test_default_hold_cap_can_settle(self):
        # a hold settles from its second batch on, so a cap of 1 never does
        assert estimator._MAX_HOLD_BATCHES >= 2

    def test_cli_defaults_are_the_config_defaults(self):
        # each estimate flag that sets a config field defaults to that field's
        # default (--tol alone picks its default by plant kind)
        args = cli._parser().parse_args(["estimate", "--system", "x"])
        defaults = PowerIterationConfig()
        assert args.shift is None and defaults.shift is None
        assert (args.max_updates, args.seed) == (defaults.max_updates, defaults.rng_seed)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="convergence_tol"):
            PowerIterationConfig(convergence_tol=tol)

    @pytest.mark.parametrize("knob", ["max_updates"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, True])
    def test_rejects_non_integral_counts(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            PowerIterationConfig(**{knob: value})

    def test_accepts_numpy_integers(self):
        config = PowerIterationConfig(max_updates=np.int64(7), rng_seed=np.int32(2))
        assert (config.max_updates, config.rng_seed) == (7, 2)

    @pytest.mark.parametrize("knob", ["shift", "convergence_tol"])
    @pytest.mark.parametrize("value", [True, "1e-8", 1e-8j, [1e-8]])
    def test_rejects_non_real_knobs(self, knob, value):
        with pytest.raises(ValueError, match=f"^{knob} must be a real number"):
            PowerIterationConfig(**{knob: value})

    def test_rejects_missing_tolerance(self):
        with pytest.raises(ValueError, match="^convergence_tol must be a real number, got None"):
            PowerIterationConfig(convergence_tol=None)

    def test_accepts_numpy_reals(self):
        config = PowerIterationConfig(shift=np.float32(2.0), convergence_tol=np.float64(1e-6))
        assert (config.shift, config.convergence_tol) == (2.0, 1e-6)

    def test_first_bad_knob_in_field_order_is_reported(self):
        with pytest.raises(ValueError, match="^shift"):
            PowerIterationConfig(shift=0.0, max_updates=0, rng_seed=-1)
        with pytest.raises(ValueError, match="^convergence_tol"):
            PowerIterationConfig(convergence_tol=0.0, rng_seed=-1)


class TestResetFreeIteration:
    def test_converges_to_top_reversed_eigenvalue_at_dc(self):
        # first-order low pass peaks at frequency zero, a simple top value
        ss = low_pass()
        N = 8
        target = reversed_top(ss, N)
        assert target == pytest.approx(2.0, abs=1e-12)
        plant = new_session(ss, N, RESET_FREE, settled=True)
        config = PowerIterationConfig(
            shift=2.0, max_updates=200, convergence_tol=1e-10, rng_seed=0
        )
        trace = iterate_reset_free(plant, config)
        assert trace.converged
        assert len(trace.updates) <= 200
        assert trace.estimate == pytest.approx(target, abs=1e-6)
        u = trace.updates[-1].u
        direction = u / u[0]
        assert np.abs(direction - 1.0).max() < 1e-4  # constant vector up to sign

    def test_oracle_agreement_on_random_systems(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(8):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(4, 17))
            rev = reversed_spectrum(circulant_eigenvalues(circulant_coefficients(ss, N)))
            top = np.sort(rev)[::-1]
            if top[0] <= 0 or top[0] - top[1] < 1e-3 * (1 + abs(top[0])):
                continue  # exact assertion only for a simple dominant value
            plant = new_session(ss, N, RESET_FREE, settled=True)
            config = PowerIterationConfig(
                shift=float(top[0]),
                max_updates=5000,
                convergence_tol=1e-11,
                rng_seed=1,
            )
            trace = iterate_reset_free(plant, config)
            assert trace.estimate == pytest.approx(top[0], abs=1e-6)
            checked += 1
        assert checked >= 3

    def test_shift_changes_speed_not_limit(self):
        ss = tf_to_ss(delayed_resonator())
        N = 50
        sigma = reversed_top(ss, N)
        results = []
        for shift in (0.5 * sigma, sigma, 2.0 * sigma):
            plant = new_session(ss, N, RESET_FREE, settled=True)
            config = PowerIterationConfig(
                shift=shift, max_updates=20000, convergence_tol=1e-9, rng_seed=0
            )
            results.append(iterate_reset_free(plant, config).estimate)
        assert abs(results[0] - results[1]) < 1e-6
        assert abs(results[1] - results[2]) < 1e-6
        assert results[1] == pytest.approx(sigma, abs=1e-6)

    def test_no_sign_alternation_with_large_shift(self):
        ss = tf_to_ss(delayed_resonator())
        N = 50
        sigma = reversed_top(ss, N)
        plant = new_session(ss, N, RESET_FREE, settled=True)
        config = PowerIterationConfig(
            shift=1.5 * sigma, max_updates=500, convergence_tol=1e-9, rng_seed=2
        )
        trace = iterate_reset_free(plant, config)
        for prev, nxt in zip(trace.updates, trace.updates[1:]):
            assert prev.u @ nxt.u > 0.0

    def test_input_power_held_at_every_update(self):
        plant = new_session(low_pass(), 8, RESET_FREE, settled=True)
        config = PowerIterationConfig(shift=1.0, max_updates=50, rng_seed=0)
        trace = iterate_reset_free(plant, config)
        for record in trace.updates:
            assert abs(record.u @ record.u - 8) < 1e-8

    def test_hold_semantics_bitwise(self, monkeypatch):
        monkeypatch.setattr(estimator, "_MAX_HOLD_BATCHES", 4)
        rng = np.random.default_rng(12)
        M = 0.4 * rng.standard_normal((6, 6))  # arbitrary fixed response
        plant = RecordingPlant(lambda u: M @ u, 6)
        config = PowerIterationConfig(
            shift=1.0, max_updates=5, convergence_tol=1e-30, rng_seed=0
        )
        trace = iterate_reset_free(plant, config)
        blocks = hold_blocks(trace, plant.applied)
        assert len(blocks) == len(trace.updates) == 5
        for block, record in zip(blocks, trace.updates):
            assert 2 <= len(block) <= 4
            for u in block:
                assert np.array_equal(u, record.u)

    def test_runs_on_duck_typed_plant(self):
        # nothing but N and apply_batch is required of the plant
        plant = RecordingPlant(lambda u: 1.3 * u, 5)
        config = PowerIterationConfig(shift=1.3, max_updates=50, rng_seed=0)
        trace = iterate_reset_free(plant, config)
        assert trace.converged
        assert trace.estimate == pytest.approx(1.3, abs=1e-8)

    def test_degenerate_flat_spectrum_stays_bounded(self):
        # scaled identity response: every frequency ties, so only subspace
        # convergence is guaranteed; the estimate stays a valid quotient
        c = 0.8
        plant = RecordingPlant(lambda u: c * u, 6)
        config = PowerIterationConfig(shift=c, max_updates=100, rng_seed=3)
        trace = iterate_reset_free(plant, config)
        assert all(abs(record.beta) <= c + 1e-9 for record in trace.updates)
        for record in trace.updates:
            assert abs(record.u @ record.u - 6) < 1e-8

    @pytest.mark.parametrize(
        "ss",
        [tf_to_ss(delayed_resonator()), tf_to_ss(RationalTransferFunction((2.0,), (1.0,)))],
        ids=["demo", "static-gain"],
    )
    def test_overflowing_update_vector_diagnosed(self, ss):
        # shift * u is finite, but ||z||^2 overflows: z would be scaled to
        # zero, and the demo read out beta = 0 as converged
        plant = new_session(ss, 3, RESET_FREE)
        config = PowerIterationConfig(shift=1e308, rng_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="overflowed"):
                iterate_reset_free(plant, config)

    def test_empty_trace_has_no_estimate(self):
        with pytest.raises(ValueError, match="empty trace"):
            EstimateTrace().estimate

    def test_vanishing_update_vector_diagnosed(self):
        shift = 0.7
        plant = RecordingPlant(lambda u: (-shift * u)[::-1].copy(), 4)
        config = PowerIterationConfig(shift=shift, max_updates=10, rng_seed=0)
        with pytest.raises(EstimationError, match="shift or seed"):
            iterate_reset_free(plant, config)

    def test_non_convergence_sets_flag(self):
        plant = new_session(tf_to_ss(delayed_resonator()), 50, RESET_FREE, settled=True)
        config = PowerIterationConfig(
            shift=2.0, max_updates=3, convergence_tol=1e-14, rng_seed=0
        )
        trace = iterate_reset_free(plant, config)
        assert not trace.converged
        assert len(trace.updates) == 3

    def test_mode_and_length_validation(self):
        # the batch length comes from the plant alone
        plant = RecordingPlant(lambda u: 0.5 * u, 9)
        iterate_reset_free(plant, PowerIterationConfig(shift=1.0, max_updates=3))
        assert {u.shape for u in plant.applied} == {(9,)}

    def test_transient_settles_within_each_hold_period(self):
        ss = tf_to_ss(delayed_resonator())
        N = 50
        captured = []

        class Capture:
            def __init__(self):
                self._inner = new_session(ss, N, RESET_FREE)
                self.N = N

            def apply_batch(self, u):
                record = self._inner.apply_batch(u)
                captured.append(record.y.copy())
                return record

        # one batch already contracts this plant's transient hard
        config = PowerIterationConfig(
            shift=2.0, max_updates=12, convergence_tol=1e-30, rng_seed=0,
        )
        trace = iterate_reset_free(Capture(), config)
        blocks = hold_blocks(trace, captured)
        assert len(blocks) == 12
        for block in blocks:
            assert 2 <= len(block) <= estimator._MAX_HOLD_BATCHES
            changes = [relative_batch_change(a, b) for a, b in zip(block, block[1:])]
            # settled well before the next update, and no growth across the hold
            assert changes[-1] < 1e-6
            assert changes[-1] <= changes[0] + 1e-12

    def test_dead_time_longer_than_batch_is_waited_out(self):
        # at N = 25 the demo's 50-sample dead time makes the first two
        # batches from rest all zero: they must not end the hold as settled
        plant = new_session(tf_to_ss(delayed_resonator()), 25, RESET_FREE)
        config = PowerIterationConfig(shift=2.0, max_updates=3, convergence_tol=1e-30,
                                      rng_seed=0)
        trace = iterate_reset_free(plant, config)
        first = [row for row in trace.rows if row[0] == 1]
        assert [mu for _, _, mu, _ in first[:2]] == [0.0, 0.0]
        assert len(first) > 2
        assert trace.updates[0].y.any()

    @pytest.mark.parametrize("N", [16, 25])
    def test_dead_time_longer_than_batch_is_waited_out_on_every_hold(self, N):
        # after a settled hold the first batches of the next one still show
        # the old input's settled response: each readout must be its own
        # input's settled output, not the previous one's
        ss = tf_to_ss(delayed_resonator())
        config = PowerIterationConfig(shift=2.0, max_updates=2000, convergence_tol=1e-9,
                                      rng_seed=0)
        trace = iterate_reset_free(new_session(ss, N, RESET_FREE), config)
        assert trace.converged and len(trace.updates) > 10
        for record in trace.updates:
            assert settled_error(ss, N, record) <= 1e-6
        target = reversed_top(ss, N)
        assert abs(trace.estimate - target) < 1e-6 * target

    def test_transient_plant_reaches_ideal_value(self):
        ss = tf_to_ss(delayed_resonator())
        N = 50
        target = reversed_top(ss, N)
        session = new_session(ss, N, RESET_FREE)
        config = PowerIterationConfig(
            shift=2.0, max_updates=2000, convergence_tol=1e-7, rng_seed=0,
        )
        trace = iterate_reset_free(session, config)
        assert trace.converged
        assert abs(trace.estimate - target) < 1e-3 * target


def test_estimator_imports_nothing_from_plant():
    # the estimator knows a plant only by its contract, N and apply_batch
    tree = ast.parse(Path(estimator.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "plant" for name in names), ast.dump(node)



def negative_dc():
    """-0.1 / (1 - 0.9 z^-1): the peak is a negative DC gain, at the bottom of
    the reversed spectrum."""
    return tf_to_ss(RationalTransferFunction((-0.1,), (1.0, -0.9)))


class TestNegativeReadout:
    """A negative beta is the reversed spectrum's bottom end, never a converged gain."""

    @pytest.mark.parametrize("settled, tol, seeds", [
        (False, 1e-4, (1, 2, 3, 4)), (True, 1e-8, (1, 2, 3)),
    ], ids=["session", "settled"])
    def test_a_negative_final_beta_is_not_converged(self, settled, tol, seeds):
        # the CLI's defaults: the probed shift and the run share the seed
        for seed in seeds:
            session = new_session(negative_dc(), 50, RESET_FREE, settled=settled)
            shift = select_shift(session, 50, seed)
            config = PowerIterationConfig(shift=shift, rng_seed=seed, convergence_tol=tol)
            trace = iterate_reset_free(session, config)
            # it stopped on the tolerance, at the bottom end
            assert len(trace.updates) < config.max_updates, seed
            assert abs(trace.estimate - trace.updates[-2].beta) < tol, seed
            assert trace.estimate < -0.99, seed
            assert not trace.converged, seed

    @pytest.mark.parametrize("settled", [False, True], ids=["session", "settled"])
    def test_a_zero_gain_plant_still_converges(self, settled):
        ss = tf_to_ss(RationalTransferFunction((0.0,), (1.0, -0.9)))
        session = new_session(ss, 50, RESET_FREE, settled=settled)
        trace = iterate_reset_free(session, PowerIterationConfig(shift=1.0, rng_seed=1))
        assert trace.estimate == 0.0
        assert trace.converged


class TestStartContract:
    """A run may start on a plant at rest or settled on the run's start input.

    ``select_shift(plant, N, s)`` leaves the plant settled on
    ``init_input(N, s)``, so a run with ``rng_seed = s`` that follows it
    reads out its own start input's settled output on update 1, across the
    demo's dead time of two batches at N = 25 too.
    """

    @pytest.mark.parametrize("system, N", [
        ("demo", 25), ("demo", 50), ("demo", 256), ("slow", 50), ("slow", 256),
    ])
    def test_run_after_the_probe_reads_its_own_start_input(self, system, N):
        ss = tf_to_ss(delayed_resonator()) if system == "demo" else slow_pole()
        for seed in range(4):
            session = new_session(ss, N, RESET_FREE)
            shift = select_shift(session, N, seed)
            config = PowerIterationConfig(shift=shift, rng_seed=seed, max_updates=2)
            first = iterate_reset_free(session, config).updates[0]
            assert np.array_equal(first.u, init_input(N, seed))
            settled = new_session(ss, N, RESET_FREE, settled=True).apply_batch(first.u).y
            error = np.linalg.norm(first.y - settled) / np.linalg.norm(settled)
            assert error <= 1e-9, (seed, error)


class TestResetBasedIteration:
    """The classical baseline the paper compares against, on the test-side references."""

    def test_dead_time_longer_than_batch_terminates_with_zero(self):
        session = LiftedReferenceSession(tf_to_ss(delayed_resonator()), 50, RESET_PER_BATCH)
        trace = iterate_reading_every_batch(session, PowerIterationConfig(rng_seed=0),
                                            reset_based=True)
        assert trace.zero_output
        assert trace.converged
        assert trace.estimate == 0.0
        assert session.batch_counter == 1

    def test_static_gain_readouts(self):
        # flat single-batch response c*I: the amplification readout mu hits c
        # on the very first batch; the quotient beta stays inside [-c, c]
        # (every direction ties, so it cannot single out c itself)
        c = 1.9
        ss = tf_to_ss(RationalTransferFunction((c,), (1.0,)))
        session = LiftedReferenceSession(ss, 6, RESET_PER_BATCH)
        trace = iterate_reading_every_batch(session, PowerIterationConfig(rng_seed=4),
                                            reset_based=True)
        assert trace.updates[0].mu == pytest.approx(c, abs=1e-12)
        assert all(abs(record.beta) <= c + 1e-12 for record in trace.updates)
        assert trace.converged

    def test_estimate_magnitude_matches_single_batch_gain(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(12):
            ss = random_stable_statespace(rng)
            N = 32
            J = lift(ss, N).J
            eigs = np.sort(np.abs(np.linalg.eigvalsh(J[::-1, :])))[::-1]
            gain = eigs[0]
            # without a shift the baseline cannot separate near-tied dominant
            # magnitudes (and the tie tightens as N grows); the exact
            # assertion needs a clear gap
            if gain < 1e-6 or eigs[1] / gain > 0.994:
                continue
            session = LiftedReferenceSession(ss, N, RESET_PER_BATCH)
            config = PowerIterationConfig(
                max_updates=30000, convergence_tol=1e-12, rng_seed=5
            )
            trace = iterate_reading_every_batch(session, config, reset_based=True)
            assert trace.converged
            expected = max_gain_reset_based(J[:, 0])
            assert abs(trace.estimate) == pytest.approx(expected, abs=1e-6 * (1 + expected))
            checked += 1
        assert checked >= 3


def slow_pole_pair():
    """Complex poles at 0.9999 exp(+-0.3j): two slow, oscillating transient modes."""
    r, theta = 0.9999, 0.3
    return tf_to_ss(RationalTransferFunction((1e-4,), (1.0, -2.0 * r * np.cos(theta), r * r)))


def settled_gain(ss, N, rng_seed):
    """||y|| / ||u|| of the probe input on the transient-free plant."""
    u = init_input(N, rng_seed)
    plant = new_session(ss, N, RESET_FREE, settled=True)
    return float(np.linalg.norm(plant.apply_batch(u).y) / np.linalg.norm(u))


class TestSelectShift:
    def test_static_gain_probe_is_exact(self):
        ss = tf_to_ss(RationalTransferFunction((2.4,), (1.0,)))
        session = new_session(ss, 8, RESET_FREE)
        assert select_shift(session, 8, rng_seed=0) == pytest.approx(2.4, abs=1e-9)

    def test_zero_plant_falls_back_with_warning(self):
        ss = tf_to_ss(RationalTransferFunction((0.0,), (1.0,)))
        session = new_session(ss, 8, RESET_FREE)
        with pytest.warns(UserWarning, match="zero output"):
            assert select_shift(session, 8, rng_seed=0) == 1.0

    @pytest.mark.parametrize("N", [16, 50, 256])
    def test_probe_is_scale_equivariant(self, N):
        # every rule of the probe is relative: an output scaled by a power of
        # two scales the shift by exactly that, in the same batches, however
        # small the plant's gain
        ss = tf_to_ss(delayed_resonator())
        scale = 2.0**-30
        tiny = StateSpace(ss.A, ss.B, ss.C * scale, ss.D * scale)
        session, tiny_session = new_session(ss, N, RESET_FREE), new_session(tiny, N, RESET_FREE)
        shift = select_shift(session, N, rng_seed=0)
        assert select_shift(tiny_session, N, rng_seed=0) == shift * scale
        assert tiny_session.batch_counter == session.batch_counter

    def test_demo_plant_probe_is_positive_and_finite(self):
        session = new_session(tf_to_ss(delayed_resonator()), 50, RESET_FREE)
        shift = select_shift(session, 50, rng_seed=0)
        assert 1e-6 < shift < 10.0

    def test_unsettled_probe_warns_with_count_and_residual(self, monkeypatch):
        # a complex pole pair at radius 0.9999 needs thousands of batches of
        # 50 to settle, and scalar extrapolation cannot shortcut two modes
        monkeypatch.setattr(estimator, "_MAX_PROBE_BATCHES", 5)
        session = new_session(slow_pole_pair(), 50, RESET_FREE)
        with pytest.warns(UserWarning, match=r"within 5 batches \(last relative_batch_change"):
            shift = select_shift(session, 50, rng_seed=0)
        assert session.batch_counter == 6
        assert 0.0 < shift < 1.0

    def test_settled_probe_does_not_warn(self, recwarn):
        session = new_session(low_pass(), 8, RESET_FREE)
        select_shift(session, 8, rng_seed=0)
        assert not [w for w in recwarn if "did not settle" in str(w.message)]

    @pytest.mark.parametrize("N", [8, 50, 256])
    def test_slow_pole_probe_is_extrapolated(self, N, recwarn):
        # one geometric transient mode: Aitken's limit is exact after 3 batches
        ss = slow_pole()
        session = new_session(ss, N, RESET_FREE)
        shift = select_shift(session, N, rng_seed=0)
        assert session.batch_counter <= 10
        assert shift == pytest.approx(settled_gain(ss, N, 0), abs=1e-10)
        assert not recwarn.list

    def test_two_slow_poles_probe(self):
        den = tuple(np.polymul([1.0, -0.9999], [1.0, -0.999]))
        ss = tf_to_ss(RationalTransferFunction((1e-7,), den))
        session = new_session(ss, 50, RESET_FREE)
        shift = select_shift(session, 50, rng_seed=0)
        assert session.batch_counter <= 500
        assert shift == pytest.approx(settled_gain(ss, 50, 0), rel=1e-6)

    def test_negative_slow_pole_probe(self):
        # at even N the per-batch contraction (-0.999)^N is positive
        ss = tf_to_ss(RationalTransferFunction((1e-3,), (1.0, 0.999)))
        session = new_session(ss, 50, RESET_FREE)
        shift = select_shift(session, 50, rng_seed=0)
        assert session.batch_counter <= 10
        assert shift == pytest.approx(settled_gain(ss, 50, 0), abs=1e-10)

    def test_negative_contraction_probe_is_extrapolated(self):
        # at odd N the per-batch contraction (-0.999)^N is negative, about -0.95
        ss = tf_to_ss(RationalTransferFunction((1e-3,), (1.0, 0.999)))
        session = new_session(ss, 51, RESET_FREE)
        shift = select_shift(session, 51, rng_seed=0)
        assert session.batch_counter <= 10
        assert shift == pytest.approx(settled_gain(ss, 51, 0), abs=1e-10)

    @pytest.mark.parametrize("N", [8, 16])
    def test_dead_time_longer_than_batch_is_waited_out(self, N, recwarn):
        # the demo's 50-sample dead time spans several all-zero batches
        ss = tf_to_ss(delayed_resonator())
        session = new_session(ss, N, RESET_FREE)
        shift = select_shift(session, N, rng_seed=0)
        assert not recwarn.list
        assert shift == pytest.approx(settled_gain(ss, N, 0), rel=1e-8)

    @pytest.mark.parametrize(
        "seed, shift, batches",
        [(0, 0.9909459315140888, 5), (1, 1.034077508810889, 5), (2, 1.1137095825190033, 5)],
    )
    def test_demo_probe_is_unchanged(self, seed, shift, batches):
        # values of the raw settle rule alone: extrapolation must not move them
        session = new_session(tf_to_ss(delayed_resonator()), 50, RESET_FREE)
        assert select_shift(session, 50, rng_seed=seed) == pytest.approx(shift, rel=1e-13)
        assert session.batch_counter == batches

    @pytest.mark.parametrize("settled", [False, True], ids=["session", "steady"])
    def test_probe_length_must_match_the_plant(self, settled):
        session = new_session(low_pass(), 8, RESET_FREE, settled=settled)
        with pytest.raises(ValueError, match="probe length 9 differs from the plant's batch length 8"):
            select_shift(session, 9, rng_seed=0)
        assert session.batch_counter == 0


def trace_bits(trace):
    """Everything a trace holds, with every float as its exact bits."""
    rows = [(update, j, mu.hex(), beta.hex()) for update, j, mu, beta in trace.rows]
    updates = [(r.u.tobytes(), r.y.tobytes(), r.mu.hex(), r.beta.hex()) for r in trace.updates]
    return rows, updates, trace.estimate.hex(), trace.converged


class OutputLog:
    """Plant wrapper that logs the bytes of every output it returns."""

    def __init__(self, plant):
        self._plant = plant
        self.N = plant.N
        self.outputs = []

    def apply_batch(self, u):
        record = self._plant.apply_batch(u)
        self.outputs.append(record.y.tobytes())
        return record


def demo_session(N, **kwargs):
    return new_session(tf_to_ss(delayed_resonator()), N, RESET_FREE, **kwargs)


def noisy_demo_session(N):
    rng = np.random.default_rng(5)
    return demo_session(N, noise=lambda n: 1e-3 * rng.standard_normal(n))


CLI_CONFIG = dict(convergence_tol=1e-4)


class TestSharedReadouts:
    """The estimator's traces equal those of the plain reference loop.

    The reference holds each input in a loop of its own and computes every
    batch's readouts with ``@`` where the estimator uses ``ndarray.dot``; the
    traces must agree bit for bit, batch indices and hold extents included.
    The plants are opened twice, so both loops see the same outputs.
    """

    CASES = {
        "demo-50-seed0": (lambda: demo_session(50), dict(CLI_CONFIG, rng_seed=0)),
        "demo-50-seed7": (lambda: demo_session(50), dict(CLI_CONFIG, rng_seed=7)),
        "demo-256": (lambda: demo_session(256), dict(CLI_CONFIG, rng_seed=1)),
        # the largest BLAS shapes: a 2100 x 52 plant product and length-2048 dots
        "demo-2048": (lambda: demo_session(2048), dict(CLI_CONFIG, rng_seed=0, max_updates=2)),
        "demo-25": (lambda: demo_session(25), dict(CLI_CONFIG, rng_seed=0)),
        # a dead time of four or more whole batches: the start rule rejects
        # measured batches before any limit is formed
        "demo-12": (lambda: demo_session(12), dict(CLI_CONFIG, rng_seed=0)),
        "slow-pole": (lambda: new_session(slow_pole(), 50, RESET_FREE),
                      dict(CLI_CONFIG, rng_seed=3)),
        "slow-pole-256": (lambda: new_session(slow_pole(), 256, RESET_FREE),
                          dict(CLI_CONFIG, rng_seed=0)),
        # two slow modes: limits are formed and rejected, and holds run to the cap
        "two-slow-poles": (lambda: new_session(two_slow_poles(), 50, RESET_FREE),
                           dict(CLI_CONFIG, rng_seed=0)),
        "settled": (lambda: demo_session(50, settled=True),
                    dict(convergence_tol=1e-9, rng_seed=2)),
        "noise": (lambda: noisy_demo_session(50),
                  dict(shift=2.0, max_updates=30, rng_seed=0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_trace_equals_reading_every_batch(self, case, monkeypatch):
        make_plant, knobs = self.CASES[case]
        if case == "settled":  # a cap other than the default, read by both loops
            monkeypatch.setattr(estimator, "_MAX_HOLD_BATCHES", 4)
        config = PowerIterationConfig(**knobs)
        expected = iterate_reading_every_batch(make_plant(), config)
        trace = iterate_reset_free(make_plant(), config)
        assert trace_bits(trace) == trace_bits(expected)

    @pytest.mark.parametrize("case", ["demo-25", "demo-50-seed7", "slow-pole", "settled"])
    def test_plant_of_only_n_and_apply_batch_gives_the_sessions_trace(self, case):
        # the plant contract is N and apply_batch alone: a wrapper that
        # exposes nothing else probes and iterates exactly like the session
        make_plant, knobs = self.CASES[case]
        wrapped, session = OutputLog(make_plant()), make_plant()
        assert not hasattr(wrapped, "mode")
        shifts = [select_shift(plant, plant.N, knobs["rng_seed"]) for plant in (wrapped, session)]
        assert shifts[0].hex() == shifts[1].hex()
        config = PowerIterationConfig(**dict(knobs, shift=shifts[0]))
        assert trace_bits(iterate_reset_free(wrapped, config)) == trace_bits(
            iterate_reset_free(session, config))

    def test_settled_plant_holds_two_batches(self, monkeypatch):
        # the ideal plant repeats its output, so every hold settles at its
        # second batch, below the cap of 4 (the "settled" case above checks
        # this trace against the reference loop)
        monkeypatch.setattr(estimator, "_MAX_HOLD_BATCHES", 4)
        make_plant, knobs = self.CASES["settled"]
        trace = iterate_reset_free(make_plant(), PowerIterationConfig(**knobs))
        extents = hold_extents(trace)
        assert len(extents) == len(trace.updates) > 1
        assert set(extents.values()) == {2}


def two_slow_poles():
    """Real poles at 0.9999 and 0.999 with unit DC gain: two slow transient modes."""
    den = tuple(np.polymul([1.0, -0.9999], [1.0, -0.999]))
    return tf_to_ss(RationalTransferFunction((1e-7,), den))


def hold_extents(trace):
    """Trace rows per update: the batches each hold ran."""
    return collections.Counter(update for update, _, _, _ in trace.rows)


class TestHoldCap:
    """``_MAX_HOLD_BATCHES`` is the only bound on a hold's length."""

    def test_patched_cap_bounds_every_hold(self, monkeypatch):
        # two slow modes keep each hold moving, so holds run to the cap
        monkeypatch.setattr(estimator, "_MAX_HOLD_BATCHES", 3)
        plant = new_session(two_slow_poles(), 50, RESET_FREE)
        config = PowerIterationConfig(shift=1.0, max_updates=20, convergence_tol=1e-30)
        extents = hold_extents(iterate_reset_free(plant, config))
        assert len(extents) == 20
        assert max(extents.values()) == 3

    @pytest.mark.parametrize("N", [25, 50])
    def test_demo_holds_stay_within_the_default_cap(self, N):
        assert estimator._MAX_HOLD_BATCHES == 10
        trace = iterate_reset_free(demo_session(N), PowerIterationConfig(**CLI_CONFIG))
        assert trace.converged
        assert max(hold_extents(trace).values()) <= 10


def hold_readouts(ss, N, **knobs):
    """Run the reset-free iteration on a transient session and list its holds.

    Each hold gives (update record, last measured output, the one before it),
    the outputs as float64 bytes.
    """
    plant = OutputLog(new_session(ss, N, RESET_FREE))
    trace = iterate_reset_free(plant, PowerIterationConfig(**knobs))
    last = {update: j for update, j, _, _ in trace.rows}
    return [(record, plant.outputs[last[k]], plant.outputs[last[k] - 1])
            for k, record in enumerate(trace.updates, 1)]


def settled_error(ss, N, record):
    """Relative distance of a readout from the settled plant's output for its input."""
    settled = new_session(ss, N, RESET_FREE, settled=True).apply_batch(record.u).y
    return float(np.linalg.norm(record.y - settled) / np.linalg.norm(settled))


def scripted_hold(outputs, prev=None):
    """Hold one input on a plant that returns ``outputs`` in turn, capped at their count.

    ``prev`` is the previous readout, rest if None. Returns the hold's
    (y, change) and the number of batches it applied.
    """
    batches = iter(outputs)
    plant = RecordingPlant(lambda u: next(batches), len(outputs[0]))
    prev = np.zeros(plant.N) if prev is None else prev
    y, change = estimator._hold(plant, np.ones(plant.N), len(outputs), prev)
    return y, change, plant.batch_counter


class TestSettledReadout:
    """A hold whose last batch still moves is read out by Aitken's rule in ``_hold``."""

    def test_settled_batch_is_returned_as_measured(self):
        y = np.array([1.0, 2.0, 3.0])
        held, change, batches = scripted_hold([y + 1.0, y + 1e-3, y * (1.0 + 1e-12), y])
        assert held is y and change is None and batches == 4

    @pytest.mark.parametrize("r", [0.999, 0.5, -0.5, -0.999])
    def test_one_geometric_mode_is_extrapolated_to_its_limit(self, r):
        s, a = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.2])
        limit, change, batches = scripted_hold([s + a * r**j for j in range(4)])
        assert change is None and batches == 4
        # the batch changes lose digits to cancellation: r / (1 - r) scales
        # their rounding up to about 1e3 at r = 0.999
        assert np.abs(limit - s).max() < 1e-10

    def test_two_modes_and_short_windows_are_rejected(self):
        s = np.array([1.0, -2.0, 0.5])
        a, b = np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.2, 0.0])
        window = [s + a * 0.9**j + b * 0.5**j for j in range(4)]
        # one geometric mode over three batches gives one limit, with none to agree with
        single = [s + a * 0.5**j for j in range(3)]
        for outputs in (window, window[1:], window[:2], single):
            y, change, batches = scripted_hold(outputs)
            assert y is outputs[-1] and change > 1e-8 and batches == len(outputs)

    def test_a_limit_is_carried_only_from_the_batch_before(self):
        # y3's limit is rejected, as y2 has none; y4 is settled but within
        # 1e-8 of prev, so the hold forms no limit for it; y5's limit equals
        # y3's to 1e-9, yet it must be compared with y4's, which is y4 itself
        # and far from it. y6 repeats y5 and is the readout.
        prev, c, delta = np.array([1.0, 2.0, 3.0, 4.0]), 1e-3, 1e-9
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        d1, d2, d3 = e0 * (c / 1.8), e0 * (c / 0.9), e0 * c
        y3 = prev.copy()
        y2 = y3 - d3
        y1 = y2 - d2
        y0 = y1 - d1
        y4 = prev + np.array([0.0, 0.0, 0.0, delta])
        y5 = y3 + d3 * 9.0
        y5[3] = y4[3]
        outputs = [y0, y1, y2, y3, y4, y5, y5.copy()]
        y, change, batches = scripted_hold(outputs, prev)
        assert y is outputs[-1] and change is None and batches == 7

    def test_zero_output_is_read_out_like_any_other(self):
        # one start rule: an output within 1e-8 of the previous readout is
        # not accepted, so zeros are waited out from rest and accepted at the
        # second batch after a nonzero readout
        u = np.ones(4)
        plant = RecordingPlant(lambda u: np.zeros(4), 4)
        y, change = estimator._hold(plant, u, 10, np.zeros(4))
        assert plant.batch_counter == 10 and change == 0.0 and not y.any()
        plant = RecordingPlant(lambda u: np.zeros(4), 4)
        y, change = estimator._hold(plant, u, 10, np.ones(4))
        assert plant.batch_counter == 2 and change is None and not y.any()

    @pytest.mark.parametrize("N, seed", [(50, 0), (50, 3), (256, 1)])
    def test_slow_pole_readouts_are_settled_outputs(self, N, seed):
        holds = hold_readouts(slow_pole(), N, **CLI_CONFIG, rng_seed=seed)
        extrapolated = [r for r, last, _ in holds if r.y.tobytes() != last]
        assert extrapolated
        for record in extrapolated:
            assert settled_error(slow_pole(), N, record) <= 1e-8

    def test_random_system_readouts_are_settled_outputs(self):
        # short batches keep the transient of these fast plants alive for a
        # few batches of each hold
        rng = np.random.default_rng(21)
        count = 0
        for seed in range(20):
            ss = random_stable_statespace(rng)
            N = int(rng.integers(2, 9))
            holds = hold_readouts(ss, N, shift=1.0, max_updates=40,
                                  convergence_tol=1e-30, rng_seed=seed)
            for record, last, _ in holds:
                if record.y.tobytes() != last:
                    assert settled_error(ss, N, record) <= 1e-8
                    count += 1
        assert count >= 20

    def test_two_slow_pole_readouts_beat_the_raw_batch(self):
        # Aitken's rule is exact for one mode only: with the 0.999 mode still
        # alive, two limits can agree to 1e-8 while both are 1e-7 off, yet
        # the extrapolated readout is far closer than the measured batch
        ss, N = two_slow_poles(), 50
        holds = hold_readouts(ss, N, **CLI_CONFIG, rng_seed=0)
        extrapolated = [(r, last) for r, last, _ in holds if r.y.tobytes() != last]
        assert extrapolated
        for record, last in extrapolated:
            error = settled_error(ss, N, record)
            raw = settled_error(ss, N, record._replace(y=np.frombuffer(last)))
            assert error <= 1e-6
            assert error <= 1e-3 * raw

    def test_multi_mode_holds_fall_back_to_the_raw_batch(self):
        holds = hold_readouts(slow_pole_pair(), 50, shift=1.0, max_updates=20,
                              convergence_tol=1e-30)
        assert len(holds) == 20
        for record, last, before in holds:
            assert last != before  # still moving, so the rule was asked
            assert record.y.tobytes() == last

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_demo_holds_are_never_extrapolated(self, seed):
        holds = hold_readouts(tf_to_ss(delayed_resonator()), 50, **CLI_CONFIG, rng_seed=seed)
        for record, last, before in holds:
            # each hold ends at a measured batch that has settled
            assert record.y.tobytes() == last
            assert relative_batch_change(np.frombuffer(before), np.frombuffer(last)) < 1e-8

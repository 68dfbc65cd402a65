"""Shared builders and independent oracles for the test suite."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from peakgain import (
    RESET_FREE,
    EstimateTrace,
    EstimationError,
    RationalTransferFunction,
    StateSpace,
    lift,
    relative_batch_change,
    select_shift,
    tf_to_ss,
)
from peakgain import estimator
from peakgain.estimator import UpdateRecord, init_input
from peakgain.lti import _samples
from peakgain.plant import BatchRecord

# Bundled demo plant: a lightly damped two-pole resonance behind 50 samples of
# dead time. Reference values computed from the closed-form magnitude
# expression at 40-digit precision and frozen here.
DEMO_NUM = (0.0, 5.0, 4.0)
DEMO_DEN = (10.0, -5.0, 6.0)
DEMO_DELAY = 50
DEMO_PEAK_GAIN = 1.9547706345854523
DEMO_PEAK_OMEGA = 1.2077304677574847

# The classical baseline's plant: the state is zeroed before every batch, so
# a batch is y = J u. Only the reference sessions below run it; the package
# runs the reset-free method alone.
RESET_PER_BATCH = "reset-per-batch"


def delayed_resonator():
    return RationalTransferFunction(DEMO_NUM, DEMO_DEN, delay=DEMO_DELAY)


def slow_pole_tf():
    """One real pole at 0.9999 with unit DC gain: a 10,000-sample time constant."""
    return RationalTransferFunction((1e-4,), (1.0, -0.9999))


def slow_pole():
    """State-space realization of ``slow_pole_tf``."""
    return tf_to_ss(slow_pole_tf())


def flat_peak_plant():
    """First-order plant whose gain peaks flatly at the Nyquist frequency.

    The reset-based gain's Lanczos iteration needs 6 to 8N steps on it: its
    extreme Ritz values are right long before their residual bounds certify
    them.
    """
    return StateSpace(np.array([[0.5867735232516942]]), np.array([0.05850669759278116]),
                      np.array([-0.5802467473706192]), 1.1388977852097697)


def simulate(ss, x0, u):
    """Run the state recursion over an input sequence, one sample at a time.

    Returns ``(y, x_final)`` so consecutive runs can be chained without any
    reset: feeding the returned state into the next call reproduces one long
    run bit for bit, because the per-sample operation order is fixed. This
    loop is the sample-exact reference that plant sessions, which apply whole
    batches through the lifted matrices, are compared against.

    ``x0`` must hold ``ss.n`` finite entries and ``u`` finite samples of any
    length, else ValueError, as at a plant session.
    """
    x = _samples(x0, ss.n, "initial state").copy()
    u = _samples(u, np.size(u), "input")
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    y = np.empty(u.shape[0])
    for k in range(u.shape[0]):
        y[k] = C @ x + D * u[k]
        x = A @ x + B * u[k]
    return y, x


class SampleExactSession:
    """Reference plant session: every batch runs sample by sample through simulate.

    Chained simulate calls reproduce one long run bit for bit, so this session
    is the exact reference the lifted production session is compared against.
    """

    def __init__(self, ss, N, mode=RESET_FREE, x0=None):
        self._ss = ss
        self._x = np.zeros(ss.n) if x0 is None else np.asarray(x0, dtype=float).copy()
        self.N = int(N)
        self.mode = mode
        self.batch_counter = 0

    def apply_batch(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        if self.mode == RESET_PER_BATCH:
            self._x = np.zeros(self._ss.n)
        y, self._x = simulate(self._ss, self._x, u)
        record = BatchRecord(j=self.batch_counter, y=y)
        self.batch_counter += 1
        return record


class LiftedReferenceSession:
    """Reference plant session: all four lifted products on every batch.

    Each batch is y = H x + J u followed by x = F x + G u (y = J u when the
    plant is reset per batch), with J u = np.convolve(h, u)[:N] and no memo
    of the held input; the production session's held-input shortcuts must
    reproduce it bit for bit.
    """

    def __init__(self, ss, N, mode=RESET_FREE, x0=None, noise=None):
        self._lifted = lift(ss, N)
        self._x = np.zeros(ss.n) if x0 is None else np.asarray(x0, dtype=float).copy()
        self._noise = noise
        self.N = int(N)
        self.mode = mode
        self.batch_counter = 0

    def apply_batch(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape != (self.N,) or not np.isfinite(u).all():
            raise ValueError(f"input batch must be {self.N} finite samples")
        lb = self._lifted
        Ju = np.convolve(lb.h, u)[: self.N]
        if self.mode == RESET_PER_BATCH:
            y = Ju
        else:
            y = lb.H @ self._x + Ju
            self._x = lb.F @ self._x + lb.G @ u
        if self._noise is not None:
            y = y + np.asarray(self._noise(self.N), dtype=float).reshape(-1)
        record = BatchRecord(j=self.batch_counter, y=y)
        self.batch_counter += 1
        return record


def end_of_hold_readout(outputs, tol=1e-8):
    """The readout of a hold's outputs so far: the last batch, its Aitken limit or None.

    A plain restatement of the estimator's rule. The last batch is the
    readout once it moved less than ``tol`` (relative) from the batch before
    it. Otherwise the last two runs of three batches y0, y1, y2 are each
    extrapolated to y2 + d1 r / (1 - r), with d0 = y1 - y0, d1 = y2 - y1 and
    r = d1 . d0 / d0 . d0 for -1 < r < 1, and the second limit is the
    readout when the two agree to ``tol``. Else the hold has not settled:
    None.
    """
    if len(outputs) < 2:
        return None
    last = outputs[-1]
    if relative_batch_change(outputs[-2], last) < tol:
        return last
    if len(outputs) < 4:
        return None
    limits = []
    for y0, y1, y2 in (outputs[-4:-1], outputs[-3:]):
        d0, d1 = y1 - y0, y2 - y1
        if not d0.any():
            return None
        r = float(d1 @ d0) / float(d0 @ d0)
        if not -1.0 < r < 1.0:
            return None
        limits.append(y2 + d1 * (r / (1.0 - r)))
    return limits[1] if relative_batch_change(*limits) < tol else None


@dataclass
class ReferenceTrace(EstimateTrace):
    """The reference loop's trace: an ``EstimateTrace`` plus the baseline's zero stop.

    ``zero_output`` is set when the reset-based baseline's plant returned a
    zero batch; the run then ends converged with estimate 0.0.
    """

    zero_output: bool = False

    @property
    def estimate(self):
        return 0.0 if self.zero_output else super().estimate


def iterate_reading_every_batch(plant, config, reset_based=False):
    """Reference power iteration: one plain loop per hold, ``readouts`` on every batch.

    Reset-free with the estimator's hold cap, ``_MAX_HOLD_BATCHES`` as it
    stands at the call, and the config's shift (None probes), or the
    classical reset-based baseline (Oomen, van der Maas, Rojas & Hjalmarsson,
    IEEE TCST 2014) on a ``RESET_PER_BATCH`` reference session, which
    re-applies the renormalized reversed output: hold 1 and shift 0, and a
    vanishing update means a zero batch and ends the run. After each batch the
    hold's outputs go through ``end_of_hold_readout``, and the hold ends at
    the first readout it gives that is not within 1e-8 of the previous
    hold's (all zeros before the first), else at the cap with its last
    batch. The estimator's traces must equal this one bit for bit.
    """
    hold, shift = (1, 0.0) if reset_based else (estimator._MAX_HOLD_BATCHES, config.shift)
    n = plant.N
    if shift is None:
        shift = select_shift(plant, n, config.rng_seed)
    trace = ReferenceTrace()
    u = init_input(n, config.rng_seed)
    sqrt_n = np.sqrt(n)
    beta_prev = None
    y = np.zeros(n)
    for update in range(1, config.max_updates + 1):
        previous, outputs = y, []
        for _ in range(hold):
            record = plant.apply_batch(u)
            outputs.append(record.y)
            trace.rows.append((update, record.j, *readouts(u, record.y)))
            y = end_of_hold_readout(outputs)
            if y is not None and relative_batch_change(previous, y) >= 1e-8:
                break
        else:
            y = record.y
        mu, beta = readouts(u, y)
        trace.rows[-1] = (update, record.j, mu, beta)
        trace.updates.append(UpdateRecord(u.copy(), y.copy(), mu, beta))
        if beta_prev is not None and abs(beta - beta_prev) < config.convergence_tol:
            trace.converged = True
            break
        beta_prev = beta
        z = y[::-1] + shift * u
        z_norm = float(np.linalg.norm(z))
        if z_norm == 0.0:
            if shift != 0.0:
                raise EstimationError("update vector vanished")
            trace.zero_output = True
            trace.converged = True
            break
        u = z * (sqrt_n / z_norm)
    return trace


def readouts(u, y):
    """mu = ||y|| / sqrt(N) and beta = u . reverse(y) / N of one batch, through ``@``.

    The estimator computes both with ``ndarray.dot``; the traces are compared
    bit for bit, so this checks ``.dot`` against ``@`` on every batch.
    """
    n = y.shape[0]
    return math.sqrt(float(y @ y)) / math.sqrt(n), float(u @ y[::-1].copy()) / n


def hold_blocks(trace, per_batch):
    """Split ``per_batch``, one entry per trace row, into the holds of the trace.

    Each hold's extent is the run of its rows' updateIndex.
    """
    assert len(per_batch) == len(trace.rows)
    return [[per_batch[i] for i, _ in rows]
            for _, rows in itertools.groupby(enumerate(trace.rows), key=lambda r: r[1][0])]


def random_stable_statespace(rng, n_max=6):
    """Generic random stable system: scaled dense A, dense B, C, D."""
    n = int(rng.integers(1, n_max + 1))
    A = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    if radius > 0.0:
        A *= rng.uniform(0.2, 0.9) / radius
    return StateSpace(A, rng.standard_normal(n), rng.standard_normal(n),
                      float(rng.standard_normal()))


def random_dc_dominant_statespace(rng, n_max=5):
    """Random plant whose gain peaks at frequency zero with a positive value.

    Positive real poles with positive residues give |P(e^{jw})| <= P(1) with
    equality only at w = 0, so the top reversed eigenvalue is the simple
    index-0 one and its eigenvector is the constant vector.
    """
    n = int(rng.integers(1, n_max + 1))
    poles = rng.uniform(0.05, 0.9, n)
    residues = rng.uniform(0.2, 2.0, n)
    return StateSpace(np.diag(poles), np.sqrt(residues), np.sqrt(residues),
                      float(rng.uniform(0.0, 1.0)))


def random_stable_tf(rng, max_order=5, max_delay=5):
    """Random stable rational system with a random pure delay."""
    order = int(rng.integers(1, max_order + 1))
    poles = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.5:
            r = rng.uniform(0.05, 0.9)
            phi = rng.uniform(0.0, np.pi)
            poles.extend([r * np.exp(1j * phi), r * np.exp(-1j * phi)])
        else:
            poles.append(rng.uniform(-0.9, 0.9))
    den = np.real(np.poly(poles))
    den = den * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    num = rng.standard_normal(int(rng.integers(1, order + 2)))
    return RationalTransferFunction(num, den, delay=int(rng.integers(0, max_delay + 1)))


def impulse_by_long_division(tf, count):
    """Impulse response straight from polynomial long division plus the delay."""
    count = int(count)
    rational = max(count - tf.delay, 0)
    num = np.zeros(rational)
    num[: min(len(tf.num), rational)] = tf.num[:rational]
    den = np.zeros(rational)
    den[: min(len(tf.den), rational)] = tf.den[:rational]
    h = np.zeros(rational)
    for k in range(rational):
        acc = num[k]
        for i in range(1, k + 1):
            acc -= den[i] * h[k - i]
        h[k] = acc / den[0]
    return np.concatenate([np.zeros(tf.delay), h])[:count]


def markov_by_sequential_loop(A, B, C, D, count):
    """First count Markov parameters D, C B, C A B, ... one A @ v per step.

    The plain sequential recursion the blocked one in ``peakgain.lifting``
    is checked against: bitwise over its first block, within a stated bound
    beyond it.
    """
    h = np.empty(count)
    h[0] = D
    v = B
    for k in range(1, count):
        h[k] = C @ v
        v = A @ v
    return h


def krylov_by_sequential_loop(A, v, count):
    """Rows v, A v, ..., A^(count-1) v, one A @ v per row."""
    rows = np.empty((count, np.shape(v)[0]))
    for k in range(count):
        rows[k] = v
        v = A @ v
    return rows


def dft_matrix(N):
    """Dense unitary DFT matrix, entries exp(-2j*pi*p*q/N) / sqrt(N).

    The O(N^2) reference the FFT routes in ``peakgain.spectral`` are checked
    against.
    """
    N = int(N)
    p = np.arange(N)
    return np.exp((-2j * np.pi / N) * np.outer(p, p)) / np.sqrt(N)


def dense_residual(M):
    """(largest off-diagonal magnitude, diagonal) of F M F* for a dense real M.

    F is the unitary DFT matrix of ``dft_matrix``. The full N x N F* M F is
    an FFT along M's rows and an inverse FFT down its columns, with plain
    ``numpy.fft``; F M F* is its conjugate, with the same magnitudes. The
    reference for ``diagonalization_residual``, which builds the array from a
    lifted system's structure, 64 rows at a time, without forming M.
    """
    T = np.fft.ifft(np.fft.fft(M, axis=1), axis=0)
    diag = np.diag(T).conj()
    np.fill_diagonal(T, 0.0)
    return float(np.abs(T).max()), diag


def circulant(c):
    """Dense circulant matrix with first column c: entry (p, q) is c[(p - q) mod N]."""
    c = np.asarray(c, dtype=float).reshape(-1)
    N = c.shape[0]
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return c[idx]


def reversed_circulant(c):
    """Dense row-reversed circulant T_N circulant(c), real symmetric by construction."""
    R = circulant(c)[::-1, :].copy()
    if not np.array_equal(R, R.T):
        raise AssertionError("row-reversed circulant came out asymmetric: construction bug")
    return R


def dominant_bin(values):
    """Strongest DFT bin folded to 0..N//2; ties resolve to the smallest index.

    ``values`` may be a complex spectrum or a real signal; a real signal is
    transformed first. Conjugate symmetry makes bins m and N-m equivalent, so
    only the folded index is reported.
    """
    v = np.asarray(values)
    if not np.iscomplexobj(v):
        v = np.fft.fft(v)
    mags = np.abs(v)
    return int(np.argmax(mags[: mags.shape[0] // 2 + 1]))


def symmetric_eig_oracle(S, return_vectors=False, max_sweeps=100):
    """Cyclic Jacobi eigensolver for a real symmetric matrix.

    Plain rotation sweeps until the off-diagonal Frobenius mass drops below
    1e-12 of the matrix norm; deliberately independent of the DFT-based
    spectral formulas it is used to cross-check. Eigenvalues come back sorted
    descending, with matching eigenvectors as columns when requested.
    """
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if n and float(np.abs(A - A.T).max()) > 1e-10:
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    V = np.eye(n) if return_vectors else None
    norm = float(np.linalg.norm(A))
    if norm == 0.0 or n < 2:
        w = np.diag(A).copy()
    else:
        skip = 1e-16 * norm

        def off_mass():
            # summed directly over the off-diagonal entries; the subtraction
            # norm(A)^2 - norm(diag)^2 would bottom out at cancellation noise
            off = A - np.diag(np.diag(A))
            return float(np.linalg.norm(off))

        done = False
        for _ in range(max_sweeps):
            if off_mass() <= 1e-12 * norm:
                done = True
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = A[p, q]
                    if abs(apq) <= skip:
                        continue
                    theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                    if theta == 0.0:
                        t = 1.0  # equal diagonal entries: rotate by 45 degrees
                    else:
                        t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    col_p = A[:, p].copy()
                    col_q = A[:, q].copy()
                    A[:, p] = c * col_p - s * col_q
                    A[:, q] = s * col_p + c * col_q
                    row_p = A[p, :].copy()
                    row_q = A[q, :].copy()
                    A[p, :] = c * row_p - s * row_q
                    A[q, :] = s * row_p + c * row_q
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    if V is not None:
                        vp = V[:, p].copy()
                        vq = V[:, q].copy()
                        V[:, p] = c * vp - s * vq
                        V[:, q] = s * vp + c * vq
        if not done and off_mass() > 1e-12 * norm:
            raise RuntimeError(
                f"Jacobi iteration did not converge within {max_sweeps} sweeps"
            )
        w = np.diag(A).copy()
    order = np.argsort(w)[::-1]
    w = w[order]
    if return_vectors:
        return w, V[:, order]
    return w

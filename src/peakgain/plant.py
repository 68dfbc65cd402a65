"""Black-box experiment boundary.

An estimator is only allowed to apply input batches and observe output
batches. The simulated plant behind a session hides its state-space model
entirely; in reset-free mode the internal state carries over from batch to
batch exactly as it would on continuously operated hardware, while the
reset-per-batch mode zeroes the state before every batch.

A session applies each batch in one step through the lifted matrices
(F, G, H, J) of ``lifting.lift``, built once when the session opens: a
reset-free batch is y = H x + J u followed by x = F x + G u, and a
reset-per-batch batch is y = J u. It therefore holds about N^2 + 2 N n
doubles for an n-state plant (J alone is N x N, 32 MB at N = 2048).
``lti.simulate`` stays the sample-exact reference; the tests compare the
session against it within a rounding tolerance.

An experiment holds one input for many batches, so the session remembers
the last input it applied by its float64 bytes. A new input is validated and
J u (and G u in reset-free mode) is computed once; a repeat reuses them, so
a reset-per-batch repeat is a copy of J u. Once a reset-free batch leaves x
bitwise unchanged, every later batch of the same input has the same operands
and so the same output, and the session returns a copy of it without any
product. Noise, if any, is still drawn for every batch. The tests check the
session bit for bit against a reference that runs all four products on
every batch.

The steady-state plant has no state: its settled response is the circulant
circ(a) of ``lifting.circulant_coefficients``, which the DFT diagonalizes,
so it applies a batch as irfft(conj(rfft(a)) * rfft(u)) in O(N log N) time
and O(N) memory. The tests compare it against the dense
``periodic_response_matrix(lift(ss, N)) @ u``.
"""

from dataclasses import dataclass

import numpy as np

from .lifting import _batch_length, circulant_coefficients, lift
from .lti import StateSpace

__all__ = [
    "RESET_FREE",
    "RESET_PER_BATCH",
    "BatchRecord",
    "PlantSession",
    "SteadyStatePlant",
    "new_session",
    "relative_batch_change",
]

RESET_FREE = "reset-free"
RESET_PER_BATCH = "reset-per-batch"


@dataclass(frozen=True)
class BatchRecord:
    """One experiment: batch index j and measured output y."""

    j: int
    y: np.ndarray


def _input_batch(u, N):
    """Validate one input batch: N finite samples, returned as a flat float array."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != N:
        raise ValueError(f"input batch must have length {N}, got {u.shape[0]}")
    if not np.isfinite(u).all():
        raise ValueError("input batch must be finite (NaN or inf sample)")
    return u


class PlantSession:
    """Stateful experiment handle over a hidden system.

    Consumers call ``apply_batch`` and read ``N``, ``mode`` and
    ``batch_counter``; the system matrices are private and never leak through
    the interface.
    A session has a single owner: do not call apply_batch concurrently on one
    session, though distinct sessions can run in parallel.

    ``noise`` may hold a callable ``noise(n_samples) -> array`` whose output
    is added to every measured batch; it is off by default and exploratory
    only.
    """

    def __init__(self, ss, N, mode, x0=None, noise=None):
        if not isinstance(ss, StateSpace):
            raise TypeError("PlantSession expects a StateSpace")
        N = _batch_length(N)
        if mode not in (RESET_FREE, RESET_PER_BATCH):
            raise ValueError(f"unknown mode {mode!r}")
        if x0 is None:
            x = np.zeros(ss.n)
        else:
            x = np.asarray(x0, dtype=float).reshape(-1).copy()
            if x.shape != (ss.n,):
                raise ValueError(f"initial state must have length {ss.n}, got {x.shape}")
            if not np.isfinite(x).all():
                raise ValueError("initial state must be finite (NaN or inf entry)")
        if mode == RESET_PER_BATCH and np.any(x != 0.0):
            raise ValueError("reset-per-batch sessions start every batch at rest; "
                             "a nonzero initial state is rejected")
        lb = lift(ss, N)
        self._F, self._G, self._H, self._J = lb.F, lb.G, lb.H, lb.J
        self._x = x
        self._noise = noise
        # the held input: its float64 bytes, J u, G u, and the noiseless
        # output once the state stops moving under it (else None)
        self._held = None
        self._Ju = self._Gu = self._settled_y = None
        self.N = N
        self.mode = mode
        self.batch_counter = 0

    def apply_batch(self, u):
        """Apply one length-N input batch and return the measured record."""
        u = np.asarray(u, dtype=float).reshape(-1)
        held = u.tobytes()
        if held != self._held:
            u = _input_batch(u, self.N)
            self._Ju = self._J @ u
            if self.mode == RESET_FREE:
                self._Gu = self._G @ u
            self._held, self._settled_y = held, None
        if self.mode == RESET_PER_BATCH:
            y = self._Ju.copy()
        elif self._settled_y is not None:
            y = self._settled_y.copy()
        else:
            y = self._H @ self._x + self._Ju
            x = self._F @ self._x + self._Gu
            if x.tobytes() == self._x.tobytes():
                # same x and u from here on: every later batch repeats y
                self._settled_y = y.copy()
            self._x = x
        if self._noise is not None:
            y = y + np.asarray(self._noise(self.N), dtype=float).reshape(-1)
        record = BatchRecord(j=self.batch_counter, y=y)
        self.batch_counter += 1
        return record


class SteadyStatePlant:
    """Idealized reset-free plant with no transients.

    Every batch returns the exact settled periodic response circ(a) u, as if
    the input had been held forever; useful for exercising estimator logic in
    isolation from transient effects. It keeps only the N // 2 + 1 conjugated
    DFT bins of a and exposes the same interface as a PlantSession.
    """

    def __init__(self, ss, N):
        a = circulant_coefficients(ss, N)
        self.N = a.shape[0]
        self._a_bins = np.conj(np.fft.rfft(a))
        self.mode = RESET_FREE
        self.batch_counter = 0

    def apply_batch(self, u):
        u = _input_batch(u, self.N)
        y = np.fft.irfft(self._a_bins * np.fft.rfft(u), self.N)
        record = BatchRecord(j=self.batch_counter, y=y)
        self.batch_counter += 1
        return record


def new_session(ss, N, mode, x0=None, noise=None):
    """Open an experiment session on a simulated plant."""
    return PlantSession(ss, N, mode, x0=x0, noise=noise)


def relative_batch_change(y_prev, y_curr):
    """Relative change between consecutive batch outputs."""
    y_prev = np.asarray(y_prev, dtype=float)
    y_curr = np.asarray(y_curr, dtype=float)
    scale = float(np.linalg.norm(y_curr))
    diff = float(np.linalg.norm(y_curr - y_prev))
    if scale == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / scale

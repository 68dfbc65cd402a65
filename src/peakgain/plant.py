"""Black-box experiment boundary.

An estimator is only allowed to apply input batches and observe output
batches. The simulated plant behind a session hides its state-space model
entirely. The plant is never reset: one class, ``PlantSession``, gives two
kinds of reset-free output:

- transient: the state carries over from batch to batch exactly as on
  continuously operated hardware; a batch is y = H x + J u followed by
  x = F x + G u, through the lifted (F, G, H, h) of ``lifting.lift``;
- settled (``settled=True``): no transient, every batch is the periodic
  response M u, the circular convolution of u with the first column c of
  ``lifting.circulant_coefficients``, as if the input had been held
  forever. The session keeps only the N // 2 + 1 bins rfft(c) and applies a
  batch as irfft(rfft(c) * rfft(u)) in O(N log N) time.

J u is the convolution of h and u cut to N samples, exactly zero where h
is (a dead time); where h is zero throughout, J u is zeros without a
convolution. A transient session holds about N (2 n + 1) + n^2 doubles for
an n-state plant, a settled one O(N). The tests keep a
sample-by-sample simulation as the exact reference of the transient kind,
and the dense ``periodic_response_matrix(lift(ss, N))`` is that of the
settled kind.

An experiment holds one input until its output settles, so the session
remembers the last input it applied by its float64 bytes, validates a new
input once and computes its own output term once: M u when settled, else
[J u; G u]. Handed again the very 1-D float64 array it was given last, it
skips the conversion to a flat float64 array but still compares the bytes.
A settled batch returns a copy of that term. A transient
stores H over F as one (N + n) x n array, so each batch is one product
z = [H; F] x plus that term, whose first N entries are the output and
whose last n the next state; the output is a view of the fresh z, which
the state never shares. The product is ``ndarray.dot``, not ``@``: the
same BLAS routine on the same contiguous operands, bit for bit, without
the matmul ufunc's dispatch. Noise, if any, is drawn for every batch. The tests
check both kinds bit for bit against references that recompute every batch
from scratch, with separate products H x and F x.
When an output has settled is the estimator's question, not the plant's:
the settle test, ``relative_batch_change``, lives in ``estimator``.
"""

from typing import NamedTuple

import numpy as np

from .lifting import circulant_coefficients, lift
from .lti import StateSpace, _count, _samples

__all__ = [
    "RESET_FREE",
    "BatchRecord",
    "PlantSession",
    "new_session",
]

# the one session mode: the plant is never reset between batches
RESET_FREE = "reset-free"
# the dtype of an input array that is its own flat float64 form
_FLOAT64 = np.dtype(np.float64)


class BatchRecord(NamedTuple):
    """One experiment: batch index j and measured output y."""

    j: int
    y: np.ndarray


class PlantSession:
    """Stateful experiment handle over a hidden system.

    Consumers call ``apply_batch`` and read ``N``, ``mode`` and
    ``batch_counter``; the system matrices are private and never leak through
    the interface. A session meets the estimator's plant contract: each
    batch returns a new output array and leaves the input alone, and a
    session opened without ``x0`` is at rest (a settled one is settled on
    every input), so a run may start on it. The estimator reads only ``N``
    and ``apply_batch``.
    A session has a single owner: do not call apply_batch concurrently on one
    session, though distinct sessions can run in parallel.

    ``mode`` must be ``RESET_FREE``. ``settled=True`` gives the idealized
    plant with no transients, for exercising estimator logic in isolation;
    it starts settled, so it takes no ``x0``. ``noise`` may hold a callable
    ``noise(n_samples) -> array`` of N finite samples that is added to every
    measured batch; it is off by default and exploratory only.
    """

    def __init__(self, ss, N, mode, x0=None, noise=None, settled=False):
        if not isinstance(ss, StateSpace):
            raise TypeError("PlantSession expects a StateSpace")
        N = _count(N, "batch length", 1)
        if mode != RESET_FREE:
            raise ValueError(f"unknown mode {mode!r}; the only mode is {RESET_FREE!r}")
        if settled and x0 is not None:
            raise ValueError("a settled plant has no transient: settled=True takes no x0")
        x = np.zeros(ss.n) if x0 is None else _samples(x0, ss.n, "initial state").copy()
        self._c_bins = None
        if settled:
            self._c_bins = np.fft.rfft(circulant_coefficients(ss, N))
        else:
            lb = lift(ss, N)
            self._HF, self._G = np.vstack((lb.H, lb.F)), lb.G
            # None when J is zero, as for a dead time of N samples or more
            self._h = lb.h if lb.h.any() else None
        self._x = x
        self._noise = noise
        # the held input: its float64 bytes and its own term, M u when
        # settled, else J u stacked over G u; and the 1-D float64 array given
        # last, if it was one
        self._held = self._term = self._given = None
        self.N = N
        self.mode = mode
        self.batch_counter = 0

    def apply_batch(self, u):
        """Apply one length-N input batch and return the measured record."""
        # the 1-D float64 array given last is its own flat form unless its
        # dtype was set in place since; its bytes are compared all the same,
        # as its values may have changed in place
        if u is not self._given or u.dtype is not _FLOAT64:
            given, u = u, np.asarray(u, dtype=float)
            if u.ndim != 1:
                u = u.reshape(-1)
            self._given = given if u is given else None
        held = u.tobytes()
        if held != self._held:
            u = _samples(u, self.N, "input batch")
            self._held = held
            if self._c_bins is not None:
                self._term = np.fft.irfft(self._c_bins * np.fft.rfft(u), self.N)
            else:
                Ju = np.zeros(self.N) if self._h is None else np.convolve(self._h, u)[: self.N]
                self._term = np.concatenate((Ju, self._G @ u))
        # drawn before the state moves, so a bad draw leaves the session as it was
        noise = None if self._noise is None else _samples(
            self._noise(self.N), self.N, "noise draw")
        if self._c_bins is not None:
            y = self._term.copy()
        else:
            z = self._HF.dot(self._x)
            z += self._term
            y, self._x = z[: self.N], z[self.N:]
        if noise is not None:
            y = y + noise
        record = BatchRecord(self.batch_counter, y)
        self.batch_counter += 1
        return record


# opens an experiment session on a simulated plant
new_session = PlantSession

"""Batch lifting of a sample-wise system and its periodic batch response.

Processing length-N input/output blocks turns the state recursion into a
batch recursion x_{j+1} = F x_j + G u_j, y_j = H x_j + J u_j. Holding a
periodic input drives the state to a fixed point, and the resulting map from
one input period to the settled output period is the circulant matrix
M = H (I - F)^-1 G + J. ``circulant_coefficients`` returns its first row a
in closed form, O(N) floats, which is all the FFT paths (the spectrum, the
steady-state plant, the state-space grid scan) need; ``impulse_response``
returns the first column h of J from the same Markov-parameter recursion.
``lift`` and the dense ``periodic_response_matrix`` serve the transient
plant session and the diagonalization residual of ``analyze``.
"""

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lti import StateSpace

__all__ = [
    "LiftedBatchSystem",
    "lift",
    "impulse_response",
    "periodic_response_matrix",
    "circulant_coefficients",
]

# smallest tolerated singular value of (I - F); below this the state matrix
# is effectively marginally stable and the fixed point is numerically
# meaningless (I - F has unit natural scale, so the bound is absolute)
_MIN_RESOLVENT_SV = 1e-12


@dataclass(frozen=True)
class LiftedBatchSystem:
    """Batch form (F, G, H, J) over blocks of N samples.

    F = A^N, G stacks A^(N-1)B ... B column-wise, H stacks C, CA, ...,
    CA^(N-1) row-wise, and J is the lower-triangular Toeplitz matrix of
    impulse-response coefficients D, CB, CAB, ...
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    J: np.ndarray


def _batch_length(N):
    """Check a batch length: an integer (numpy integers included, bool not) of at least 1."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise ValueError(f"batch length must be an integer, got {N!r}")
    if N < 1:
        raise ValueError(f"batch length must be at least 1, got {N}")
    return int(N)


def lower_toeplitz(column):
    """Read-only view of the lower-triangular Toeplitz matrix with this first column.

    Entry (i, j) is column[i - j] for i >= j and 0 above the diagonal. The
    N x N view strides over one zero-padded copy of the column, so it costs
    O(N) memory until it is copied.
    """
    column = np.asarray(column, dtype=float)
    N = column.shape[0]
    padded = np.concatenate((np.zeros(N - 1), column))
    return sliding_window_view(padded, N)[:, ::-1]


def lift(ss, N):
    """Build the batch representation of a StateSpace over blocks of N samples."""
    if not isinstance(ss, StateSpace):
        raise TypeError("lift expects a StateSpace")
    N = _batch_length(N)
    n = ss.n
    A, B, C = ss.A, ss.B, ss.C
    F = np.linalg.matrix_power(A, N)  # binary exponentiation, O(log N) products
    G = np.empty((n, N))
    col = B.copy()
    for k in range(N - 1, -1, -1):
        G[:, k] = col
        col = A @ col
    H = np.empty((N, n))
    row = C.copy()
    for k in range(N):
        H[k, :] = row
        row = row @ A
    J = lower_toeplitz(impulse_response(ss, N)).copy()
    return LiftedBatchSystem(F=F, G=G, H=H, J=J)


def _markov(A, B, C, D, count):
    # the first count Markov parameters D, C B, C A B, ... of (A, B, C, D)
    h = np.empty(count)
    h[0] = D
    v = B
    for k in range(1, count):
        h[k] = C @ v
        v = A @ v
    return h


def impulse_response(ss, N):
    """First N Markov parameters h = [D, CB, CAB, ...], the first column of J.

    They fix the single from-rest batch response J = lower Toeplitz(h).
    """
    if not isinstance(ss, StateSpace):
        raise TypeError("impulse_response expects a StateSpace")
    return _markov(ss.A, ss.B, ss.C, ss.D, _batch_length(N))


def _solve_fixed_point(F, rhs, what):
    eye = np.eye(F.shape[0])
    resolvent = eye - F
    if F.shape[0]:
        smallest_sv = float(np.linalg.svd(resolvent, compute_uv=False)[-1])
        if smallest_sv < _MIN_RESOLVENT_SV:
            raise RuntimeError(
                f"{what}: I - F is nearly singular; the state matrix is too "
                "close to marginal stability for a meaningful steady state"
            )
    return np.linalg.solve(resolvent, rhs)


def periodic_response_matrix(lb):
    """Map from one input period to the settled output period.

    Returns M = H (I - F)^-1 G + J via a factorized solve; the inverse is
    never formed explicitly.
    """
    if not isinstance(lb, LiftedBatchSystem):
        raise TypeError("periodic_response_matrix expects a LiftedBatchSystem")
    X = _solve_fixed_point(lb.F, lb.G, "periodic_response_matrix")
    return lb.H @ X + lb.J


def circulant_coefficients(ss, N):
    """Closed-form first-row coefficients a of the periodic batch response.

    Returns the length-N float array a with
    a_0 = D + C A^(N-1) w and a_k = C A^(N-k-1) w for k = 1..N-1, where
    w = (I - A^N)^-1 B: with h the N + 1 Markov parameters of (A, w, C, D),
    a = [h_N + h_0, h_(N-1), ..., h_1]. The circulant built from these
    coefficients equals periodic_response_matrix(lift(ss, N)) entry for entry,
    which the test suite checks across random systems.
    """
    if not isinstance(ss, StateSpace):
        raise TypeError("circulant_coefficients expects a StateSpace")
    N = _batch_length(N)
    AN = np.linalg.matrix_power(ss.A, N)
    w = _solve_fixed_point(AN, ss.B, "circulant_coefficients")
    h = _markov(ss.A, w, ss.C, ss.D, N + 1)
    a = h[:0:-1].copy()
    a[0] += h[0]
    return a

"""Batch lifting of a sample-wise system and its periodic batch response.

Processing length-N input/output blocks turns the state recursion into a
batch recursion x_{j+1} = F x_j + G u_j, y_j = H x_j + J u_j. Holding a
periodic input drives the state to a fixed point, and the resulting map from
one input period to the settled output period is the circulant matrix
M = H (I - F)^-1 G + J. ``circulant_coefficients`` returns its first column
c in closed form, O(N) floats, whose FFT is the frequency response on the
N-point grid: that is all the FFT paths (the spectrum, the steady-state
plant, the state-space grid scan) need; ``impulse_response`` returns the
first column h of J from the same Markov-parameter recursion.
h fixes J, so ``lift`` keeps h and J is only an O(N) view. The residual of
``analyze``, ``spectral.diagonalization_residual``, takes the lifted system
and never forms M: it transforms the rank-n term H X and the Toeplitz J
separately, so it reads lift's (F, G, H, h) and not the closed-form c it
confirms.

All of these walk one Krylov sequence v, A v, A^2 v, ... (v = B, w or, for
H, C with A transposed) through one helper. Its first 512 steps are one
``A.dot(v)`` each, and the Markov parameters one ``C.dot(row)`` each, so up
to that length every result is the plain sequential recursion with ``@``
bit for bit: ``ndarray.dot`` calls the same BLAS routine on these
contiguous operands (A transposed is Fortran-ordered, which BLAS takes as
is) without the matmul ufunc's dispatch, which costs more than a product
with a few dozen states. G and H need every row, so later steps go 512 rows
at a time as one matrix product with the rounded A^512. The Markov
parameters past that first block take baby steps and giant steps, as in
Paterson and Stockmeyer's polynomial evaluation: C A^(512 j + i) v is the
giant row C (A^512)^j, one vector-matrix product each, times the baby step
A^i v of the first block, so all of them are one product of N/512 giant
rows with the 512 baby steps, O(512 n^2 + N n) against O(N n^2) for a
walk. Reusing the rounded power makes the error grow like the number of
512-step blocks the response lasts times eps: at 100,002 terms it stays
within 1e-11 of max |h| for the test suite's slow poles, against about
1e-14 for the sequential loop, and is larger on realizations whose powers
are ill-conditioned.

A stable A can still have powers that overflow float64, as a chain with
couplings of 1e150 does. ``lift`` and ``circulant_coefficients`` form the
powers with numpy's overflow and invalid-value warnings off, and raise a
ValueError that names the power, "the powers of A up to A^N overflow
float64", when the power or any array formed from it is not finite.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lti import StateSpace, _count

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
# rows per Krylov block in _krylov, and baby steps per giant step in _markov
_BLOCK = 512


@dataclass(frozen=True)
class LiftedBatchSystem:
    """Batch form (F, G, H, J) over blocks of N samples, with J stored as h.

    F = A^N, G stacks A^(N-1)B ... B column-wise, H stacks C, CA, ...,
    CA^(N-1) row-wise, and h holds the impulse-response coefficients D, CB,
    CAB, ... that make up the lower-triangular Toeplitz J.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    h: np.ndarray

    @property
    def J(self):
        """Read-only N x N view of the single-batch response, O(N) memory."""
        return lower_toeplitz(self.h)


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
    """Build the batch representation of a StateSpace over blocks of N samples.

    Raises ValueError naming A^N when F, G, H or h is not finite, that is
    when the powers of A up to A^N overflow float64, without a warning.
    """
    if not isinstance(ss, StateSpace):
        raise TypeError("lift expects a StateSpace")
    N = _count(N, "batch length", 1)
    A, B, C = ss.A, ss.B, ss.C
    # an overflow is reported below as a ValueError, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        F = np.linalg.matrix_power(A, N)  # binary exponentiation, O(log N) products
        blocks = list(_krylov(A, B, N))
        h = _markov(A, B, C, ss.D, N, first=blocks[0])
        G = np.concatenate(blocks)[::-1].T.copy()
        H = np.concatenate(list(_krylov(A.T, C, N)))
    _check_power(N, F, G, H, h)
    return LiftedBatchSystem(F=F, G=G, H=H, h=h)


def _check_power(N, *arrays):
    # every array here is formed from the powers of A up to A^N, and a
    # StateSpace is finite, so a non-finite entry means one of those overflowed
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"the powers of A up to A^{N} overflow float64")


def _krylov(A, v, count):
    # the rows v, A v, ..., A^(count-1) v in consecutive blocks of at most
    # _BLOCK rows: the first takes one A.dot(v) per row, each later one is a
    # single product of the block before it with (A^_BLOCK)^T (see the
    # module docstring for what that costs in accuracy)
    block = np.empty((min(count, _BLOCK), v.shape[0]))
    block[0] = v
    for k in range(1, block.shape[0]):
        block[k] = A.dot(block[k - 1])
    yield block
    if count > _BLOCK:
        step = np.linalg.matrix_power(A, _BLOCK).T
        for start in range(_BLOCK, count, _BLOCK):
            block = block[: count - start] @ step
            yield block


def _markov(A, v, C, D, count, first=None):
    # the first count Markov parameters D, C v, C A v, ... by baby steps and
    # giant steps. The baby steps are the first Krylov block of (A, v), built
    # here unless passed in as first, and take one C.dot(row) per row, as the
    # sequential recursion does. The giant rows C (A^_BLOCK)^j, j >= 1, take
    # one vector-matrix product each, and row j of giants @ first.T holds the
    # _BLOCK parameters C A^(_BLOCK j + i) v, i < _BLOCK, that follow.
    if first is None:
        first = next(_krylov(A, v, count))
    h = np.empty(count)
    h[0] = D
    for k, row in enumerate(first[: count - 1], 1):
        h[k] = C.dot(row)
    if count > _BLOCK + 1:
        step = np.linalg.matrix_power(A, _BLOCK)
        giants = np.empty(((count - 2) // _BLOCK, C.shape[0]))
        giants[0] = C.dot(step)
        for j in range(1, giants.shape[0]):
            giants[j] = giants[j - 1].dot(step)
        h[_BLOCK + 1:] = (giants @ first.T).ravel()[: count - _BLOCK - 1]
    return h


def impulse_response(ss, N):
    """First N Markov parameters h = [D, CB, CAB, ...], the first column of J.

    They fix the single from-rest batch response J = lower Toeplitz(h).
    """
    if not isinstance(ss, StateSpace):
        raise TypeError("impulse_response expects a StateSpace")
    N = _count(N, "batch length", 1)
    return _markov(ss.A, ss.B, ss.C, ss.D, N)


def _solve_fixed_point(F, rhs):
    # (I - F)^-1 rhs. A NaN or inf in F raises ValueError before any
    # arithmetic on it. sigma_min(I - F) >= 1 - ||F||_2 >= 1 - ||F||_F, so a
    # Frobenius norm below 1/2 (as for an empty F) clears the guard without
    # an SVD
    if not np.isfinite(F).all():
        raise ValueError("F has non-finite entries")
    resolvent = np.eye(F.shape[0]) - F
    if not np.linalg.norm(F) < 0.5:
        smallest_sv = float(np.linalg.svd(resolvent, compute_uv=False)[-1])
        if smallest_sv < _MIN_RESOLVENT_SV:
            raise RuntimeError(
                "I - F is nearly singular; the state matrix is too "
                "close to marginal stability for a meaningful steady state"
            )
    return np.linalg.solve(resolvent, rhs)


def periodic_response_matrix(lb):
    """Map from one input period to the settled output period.

    Returns M = H (I - F)^-1 G + J, a C-contiguous N x N array, via a
    factorized solve; the inverse is never formed explicitly. The view lb.J
    is added to the product H X in place, so the only N x N array allocated
    is M itself, plus the n x N solution X. A NaN or inf in F raises
    ValueError; an I - F that is nearly singular raises RuntimeError.
    """
    if not isinstance(lb, LiftedBatchSystem):
        raise TypeError("periodic_response_matrix expects a LiftedBatchSystem")
    X = _solve_fixed_point(lb.F, lb.G)
    M = lb.H @ X
    M += lb.J
    return M


def circulant_coefficients(ss, N):
    """Closed-form first column c of the periodic batch response.

    c is the impulse response periodized over N samples,
    c_k = sum_{p >= 0} h_(k + pN), so M[p, q] = c[(p - q) mod N] and
    fft(c)[m] is the frequency response at omega = 2*pi*m/N. In closed form
    c_0 = D + C A^(N-1) w and c_k = C A^(k-1) w for k = 1..N-1, where
    w = (I - A^N)^-1 B: with g the N + 1 Markov parameters of (A, w, C, D),
    c = g[:N] with g_N added to c_0. c - h[:N] is the aliased tail of the
    response, exactly what a single from-rest batch J cannot see. The
    circulant built from c equals periodic_response_matrix(lift(ss, N))
    entry for entry, which the test suite checks across random systems.
    As in ``lift``, a non-finite A^N or c raises ValueError naming A^N,
    before the fixed point is solved if A^N itself overflows.
    """
    if not isinstance(ss, StateSpace):
        raise TypeError("circulant_coefficients expects a StateSpace")
    N = _count(N, "batch length", 1)
    # an overflow is reported below as a ValueError, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        AN = np.linalg.matrix_power(ss.A, N)
        _check_power(N, AN)
        w = _solve_fixed_point(AN, ss.B)
        g = _markov(ss.A, w, ss.C, ss.D, N + 1)
    _check_power(N, g)
    c = g[:N].copy()
    c[0] += g[N]
    return c

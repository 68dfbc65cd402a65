"""Circulant / reversed-circulant spectra through the FFT.

A circulant matrix is diagonalized by the unitary DFT matrix; its eigenvalues
are the DFT of its first column, computed here with ``numpy.fft`` in
O(N log N). Reversing the row order of a circulant gives a real symmetric
matrix whose spectrum is the circulant spectrum folded onto the real axis:
index 0 keeps its value, interior conjugate pairs become a plus/minus
magnitude pair, and (for even N) the half-rate index flips sign.

The diagonalization residual checks that the DFT diagonalizes the periodic
batch response M of a lifted system. It never forms M: M is a rank-n term
plus a lower-triangular Toeplitz matrix, and the DFT of each has a closed
form, so F* M F is built 64 rows at a time from lift's (F, G, H, h), with
no N x N array and nothing from the closed-form coefficients it confirms.

The reset-based baseline, the induced norm of the lower-triangular Toeplitz
single-batch response J, has no such closed form. It is the largest
eigenvalue magnitude of the symmetric T_N J, found by a Lanczos iteration
whose products with J are FFT convolutions with J's first column, the
impulse response h, so J is never formed. Each check of the iteration finds
the extreme eigenvalues of its tridiagonal T_k by Sturm-count bisection, and
counts only where a Rayleigh quotient iteration, started at the Gershgorin
ends in the first check and at the previous check's ends after that, has not
already pinned the answer, so its ends are those of the full bisection, bit
for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lifting import LiftedBatchSystem, _solve_fixed_point

__all__ = [
    "circulant_eigenvalues",
    "diagonalization_residual",
    "reversed_spectrum",
    "max_gain_reset_based",
]

# relative Ritz residual bound at which the reset-based gain is accepted
_LANCZOS_RTOL = 1e-13
# the Lanczos iteration checks at the end of each round of 4N + 64 steps and
# gives up after this many rounds
_LANCZOS_ROUNDS = 3
# Rayleigh quotient steps that may place one end of T_k before its window
_RQI_STEPS = 12
# largest imaginary part of lambda_0 (and of lambda_{N/2} for even N) that a
# real circulant's spectrum may show, relative to 1 + max |lambda|
_IMAG_TOL = 1e-10
_EPS = np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)
# rows of F* M F whose magnitudes diagonalization_residual takes at once
_RESIDUAL_ROWS = 64


def circulant_eigenvalues(c):
    """Spectrum of the circulant with first column c: its FFT.

    lambda_m = sum_k c_k exp(-2j*pi*m*k/N); for coefficients coming from
    ``circulant_coefficients`` it equals the system's frequency response
    G(exp(2j*pi*m/N)). ``c`` must be 1-D and finite, else ValueError.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"expected a 1-D coefficient vector, got shape {c.shape}")
    if c.shape[0] == 0:
        raise ValueError("empty coefficient vector: a circulant needs N >= 1")
    if not np.isfinite(c).all():
        raise ValueError("coefficient vector c has non-finite entries")
    return np.fft.fft(c)


def diagonalization_residual(lb):
    """How diagonal F M F* is: (largest off-diagonal magnitude, diagonal).

    F is the unitary DFT matrix with entries exp(-2j*pi*p*q/N) / sqrt(N), and
    M = ``periodic_response_matrix(lb)`` for a ``LiftedBatchSystem`` lb; any
    other input raises TypeError. For a circulant M with first column c the
    diagonal is fft(c), the frequency response at 2*pi*m/N for
    ``circulant_coefficients``. M is real, so F M F* is the conjugate of
    F* M F, with the same magnitudes. Column N-q of F* M F is the conjugate
    of column q with its rows taken in the order (-p) mod N, which maps
    diagonal entries onto diagonal entries, so only the N//2 + 1 columns
    q <= N/2 are formed and the rest of the diagonal follows by conjugate
    symmetry. Zero residual (to rounding) is specific to circulant M; a
    generic M leaves a nonzero residual. The maximum is taken over blocks of
    64 rows, and the maximum of the block maxima is the maximum of
    |F* M F| exactly.

    M is never formed. It is the rank-n term H X, X = (I - F)^-1 G, plus
    the lower-triangular Toeplitz J of the impulse response h, and each
    block of 64 rows of T = F* M F comes from that structure (Gray, Toeplitz
    and Circulant Matrices: A Review, 2006): with w = exp(-2j*pi/N),
    T[p, q] = (ifft(H, axis=0) rfft(X, axis=1))[p, q] + (g_p - g_q) /
    (1 - w^(q-p)) off the diagonal, where g = ifft(h), and the Toeplitz term
    on the diagonal is ifft(h * (N - m))[p]. That is O(N^2 n) for the
    product and O(N n) memory beside two blocks, with no N x N array. On an
    lb from ``lift`` the two terms cancel off the diagonal to rounding, a
    few eps (1 + max |diag|). A NaN or inf in F raises ValueError before
    the solve; H, X, h and every block must be finite, else ValueError; an
    lb whose I - F is nearly singular raises RuntimeError.
    """
    if not isinstance(lb, LiftedBatchSystem):
        raise TypeError("diagonalization_residual expects a LiftedBatchSystem")
    N = lb.h.shape[0]
    if N == 0:
        raise ValueError("empty matrix: the residual needs N >= 1")
    cols = N // 2 + 1
    H_hat = np.fft.ifft(lb.H, axis=0)
    X_hat = np.fft.rfft(_solve_fixed_point(lb.F, lb.G), axis=1)
    g = np.fft.ifft(lb.h)
    # a NaN or inf in H, X or h makes a zero-frequency sum non-finite
    if not (np.isfinite(H_hat).all() and np.isfinite(X_hat).all() and np.isfinite(g).all()):
        raise ValueError("matrix has non-finite entries")
    ramp = np.fft.ifft(lb.h * (N - np.arange(N)))
    # The Toeplitz factor 1 / (1 - w^j) is 1/2 - (i/2) cot(pi j / N), exact in
    # its real part; the table holds it for j = q - p from 1 - N to N//2, its
    # angle reduced into [-pi/2, pi/2], and 0 at j = 0. Row p of a block reads
    # the window that starts at N - 1 - p, so a block is a reversed slice of
    # windows.
    j = np.arange(1 - N, cols)
    j[2 * j < -N] += N
    table = np.empty(j.shape[0], dtype=complex)
    table.real = 0.5
    with np.errstate(divide="ignore"):
        table.imag = -0.5 / np.tan(np.pi * j / N)
    table[N - 1] = 0.0
    windows = sliding_window_view(table, cols)
    # every block is written into the same two buffers
    T = np.empty((min(N, _RESIDUAL_ROWS), cols), dtype=complex)
    toeplitz = np.empty_like(T)
    half = np.empty(cols, dtype=complex)
    max_off = 0.0
    for i in range(0, N, _RESIDUAL_ROWS):
        stop = min(i + _RESIDUAL_ROWS, N)
        block = np.matmul(H_hat[i:stop], X_hat, out=T[:stop - i])
        term = np.subtract.outer(g[i:stop], g[:cols], out=toeplitz[:stop - i])
        term *= windows[N - stop:N - i][::-1]
        block += term
        p = np.arange(i, min(stop, cols))
        half[p] = block[p - i, p] + ramp[p]
        block[p - i, p] = 0.0
        # a NaN or inf anywhere in the block makes its maximum NaN or inf
        block_max = float(np.abs(block).max())
        if not np.isfinite(block_max):
            raise ValueError("matrix has non-finite entries")
        max_off = max(max_off, block_max)
    if not np.isfinite(half).all():
        raise ValueError("matrix has non-finite entries")
    diag = np.concatenate((half.conj(), half[(N + 1) // 2 - 1:0:-1]))
    return max_off, diag


def reversed_spectrum(lam):
    """Real spectrum of the row-reversed circulant, indexed like the input.

    Entry 0 keeps lambda_0; for 0 < m < N/2 entry m is |lambda_m| and entry
    N-m is -|lambda_m|; for even N entry N/2 is -lambda_{N/2}. Requires the
    conjugate symmetry of a real coefficient vector, so lambda_0 (and
    lambda_{N/2} for even N) must be real up to 1e-10 relative, and ``lam``
    1-D with every entry finite, else ValueError.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim != 1:
        raise ValueError(f"expected a 1-D spectrum, got shape {lam.shape}")
    N = lam.shape[0]
    if N == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum lam has non-finite entries")
    # np.hypot gives each |lambda_m| as Python's abs does, where np.abs of a
    # complex array can differ in the last bit
    mag = np.hypot(lam.real, lam.imag)
    scale = 1.0 + float(mag.max())
    for m in (0, N // 2) if N % 2 == 0 else (0,):
        if abs(lam[m].imag) > _IMAG_TOL * scale:
            raise ValueError(
                f"lambda_{m} has imaginary part {lam[m].imag:.3g}; "
                "input is not the spectrum of a real circulant"
            )
    half = (N + 1) // 2
    out = np.empty(N)
    out[0] = lam[0].real
    out[1:half] = mag[1:half]
    out[N - half + 1:] = -mag[half - 1:0:-1]
    if N % 2 == 0:
        out[N // 2] = -lam[N // 2].real
    return out


def max_gain_reset_based(h):
    """Worst-case amplification of a single from-rest batch.

    ``h`` is the batch's impulse response (``impulse_response``), the first
    column of the lower-triangular Toeplitz batch response J. The transpose
    of J equals its time-reversed conjugation, so S = T_N J is symmetric and
    ||J||_2 is the largest eigenvalue magnitude of S. ``h`` must be 1-D and
    finite, else ValueError; an empty or all-zero ``h`` gives 0.0.

    The eigenvalue comes from a symmetric Lanczos iteration on S. A product
    S v is reverse(J v), and J v is the causal convolution of h with v, taken
    with real FFTs of length 2N: each step costs O(N log N) and O(N) memory.
    The iteration starts from a fixed-seed random vector, so reruns are
    bitwise equal. It stops once the smallest and the largest Ritz value are
    each certified to lie within max(1e-13, k eps) of the larger magnitude
    from an eigenvalue of S, k eps being what rounding allows after k steps.
    The certificate is the Ritz residual bound beta_k |s_k| (Parlett, The
    Symmetric Eigenvalue Problem) or a second Ritz value that close.

    A check after k steps costs O(k) passes over the tridiagonal T_k. Each
    check runs a Rayleigh quotient iteration per end of T_k, the first check
    from the Gershgorin ends and each later one from the ends the check
    before found, and counts only the bisection levels that the converged
    value leaves open; an end whose iteration does not converge costs at
    most two counts more than counting every level. At N = 2048 the demo
    plant's checks take 340 passes in all, the slow pole's 36 and the flat
    plant's 474, where counting every level takes 896, 108 and 1,558.
    The ends, and so the gain, are those of the full bisection bit for bit.

    Most plants certify in well under N steps. A flat gain peak needs more:
    a first-order plant peaking flatly at the Nyquist frequency certifies
    after 6 to 8N steps, because rounding keeps the residual bounds of its
    ends above the tolerance long after the ends are exact, until copies of
    their Ritz values appear. Each round of 4N + 64 steps ends with a check;
    if none has certified both ends after three rounds, 12N + 192 steps, it
    raises RuntimeError rather than return an uncertified number.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise ValueError(f"expected a 1-D impulse response, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("impulse response has non-finite entries")
    peak = float(np.abs(h).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    return peak * _lanczos_gain(h / peak)


def _lanczos_gain(column):
    # Lanczos on S = T_N J without reorthogonalization. Rounding makes copies
    # of converged Ritz values and can take the iteration past N steps.
    # Spacing the checks half of k apart (at least 32 steps) keeps all of them
    # together within about three times the last; a check also closes each
    # round of 4N + 64 steps, so the checks of the first rounds do not depend
    # on how many rounds a run may take. Each check hands its ends to the
    # next: this T_k is the leading block of the next one, whose extreme
    # eigenvalues lie at or outside these. The tolerance grows as k eps past
    # 1e-13 because the residual bounds that rounding lets Lanczos reach grow
    # that way. A beta_k that vanishes against the entries of T_k is an
    # invariant subspace; it is checked at once.
    N = column.shape[0]
    size = 2 * N
    kernel = np.fft.rfft(column, size)
    q = np.random.default_rng(0).standard_normal(N)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(N)
    alphas, squares = [], [0.0]
    beta = 0.0
    entry_max = 0.0
    next_check = min(N, 32)
    ends = None
    round_steps = 4 * N + 64
    max_steps = _LANCZOS_ROUNDS * round_steps
    for k in range(1, max_steps + 1):
        w = np.fft.irfft(kernel * np.fft.rfft(q, size), size)[N - 1::-1]
        # w is a reversed view, on which .dot and @ round differently; @ keeps
        # the reported gains as they were
        alpha = float(q @ w)
        w -= alpha * q
        w -= beta * q_prev
        entry_max = max(entry_max, abs(alpha), beta)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        if k >= next_check or k % round_steps == 0 or beta <= _LANCZOS_RTOL * entry_max:
            ends = _extreme_eigenvalues(alphas, squares, ends)
            gain = max(abs(ends[0]), abs(ends[1]))
            tol = max(_LANCZOS_RTOL, k * _EPS) * gain
            if all(
                _certified(alphas, squares, beta, end, theta, tol)
                for end, theta in enumerate(ends)
            ):
                return gain
            next_check = k + max(32, k // 2)
        squares.append(beta * beta)
        q_prev, q = q, w / beta
    raise RuntimeError(
        f"the Lanczos iteration for the reset-based gain certified no Ritz "
        f"values within {max_steps} steps"
    )


def _extreme_eigenvalues(diag, squares, previous=None):
    # smallest and largest eigenvalue of the symmetric tridiagonal with this
    # diagonal and squared off-diagonal (squares[0] = 0), each by bisection on
    # Sturm counts from the Gershgorin interval to eps times its bound. The
    # computed count is monotone in the shift (Demmel, Dhillon & Ren, ETNA 3,
    # 1995), so with count(lo) < index <= count(hi) every midpoint outside
    # (lo, hi) goes the way it would if counted: only the midpoints inside are
    # counted, and the ends are bit for bit those of the full bisection. The
    # search for each window starts at previous, the ends of a leading block
    # of T, or else at the Gershgorin ends.
    a = np.asarray(diag)
    b = np.sqrt(squares)
    radius = b + np.append(b[1:], 0.0)
    low0, high0 = float((a - radius).min()), float((a + radius).max())
    width = _EPS * max(abs(low0), abs(high0))
    ends = []
    for end, (index, start) in enumerate(zip((1, len(diag)), previous or (low0, high0))):
        lo, hi = _window(diag, squares, end, start, width)
        low, high = low0 - width, high0 + width
        while high - low > width:
            mid = 0.5 * (low + high)
            if mid <= lo or (mid < hi and _count_below(diag, squares, mid) < index):
                low = mid
            else:
                high = mid
        ends.append(0.5 * (low + high))
    return ends


def _window(diag, squares, end, start, width):
    # (lo, hi) with count(lo) < index <= count(hi) around end 0 (the smallest)
    # or 1 (the largest eigenvalue) of T. A Rayleigh quotient iteration from
    # start finds the eigenvalue (Parlett, The Symmetric Eigenvalue Problem):
    # each step x + gamma_r / ||z||^2 is a Newton step on gamma_r(x) of the
    # twisted factorization of T - x I, whose derivative is -||z||^2, at the
    # index r where |gamma_r| is smallest. A step that leaves the bracket of
    # the twisted counts seen so far, or that moves inward from inside, heads
    # for another eigenvalue: it is replaced by a step outward (growing from
    # the residual |gamma_r| / ||z||) or by the middle of the bracket, and r
    # is chosen again. Only the bisection's own count sets the window: counts
    # one width to either side of the converged value close it, stepping
    # outward until they fall on either side of the eigenvalue. An iteration
    # that does not converge (all its steps spent, or a non-finite step) gets
    # only the first count on either side of its last value, and a side that
    # count does not close stays open: the end then costs at most those two
    # counts more than a bisection that counts every level.
    index = 1 if end == 0 else len(diag)
    outward = 1.0 if end else -1.0
    below, above = -np.inf, np.inf
    x, r = start, None
    step = last = 0.0
    converged = False
    for _ in range(_RQI_STEPS):
        r, gamma, norm2, _, count = _twisted(diag, squares, x, r)
        below, above = (max(below, x), above) if count < index else (below, min(above, x))
        y = x + gamma / norm2
        if not np.isfinite(y):
            break
        delta = abs(y - x)
        if delta <= width:
            converged = True
            break
        inside = (count < index) == bool(end)
        if not below < y < above or (inside and (y - x) * outward < 0.0):
            r, last = None, 0.0
            if np.isfinite(below) and np.isfinite(above):
                y = 0.5 * (below + above)
            else:
                step = max(4.0 * step, abs(gamma) / np.sqrt(norm2))
                y = x + step if above == np.inf else x - step
        elif delta ** 3 <= width * last * last:
            # the steps converge quadratically: y is within a width
            x = y
            converged = True
            break
        else:
            last = delta
        x = y
    lo, hi = -np.inf, np.inf
    for side in (-1.0, 1.0):
        d = width
        while lo < x + side * d < hi:
            y = x + side * d
            if _count_below(diag, squares, y) < index:
                lo = y
                if side < 0.0:
                    break
            else:
                hi = y
                if side > 0.0:
                    break
            if not converged:
                break
            d *= 4.0
    return lo, hi


def _certified(diag, squares, beta, end, theta, tol):
    # Whether the extreme Ritz value theta (end 0 smallest, 1 largest) lies
    # within tol of an eigenvalue of S: by a second Ritz value within tol (S
    # has an eigenvalue between two consecutive Ritz values, which are Gauss
    # quadrature nodes; rounding makes such copies of converged ones), or by
    # the Ritz residual bound beta |u_k| + ||(T_k - theta I) u|| of the unit
    # eigenvector u = z / ||z|| of the twisted factorization of T_k - theta I.
    # The monotone count keeps the windows from moving any end, but nothing
    # keeps this test's rounding: how _twisted rounds gamma_r, ||z||^2 and
    # z_k^2 can flip a certificate near tol, stop the iteration at another
    # check and so move the gain. The pinned gains in the tests guard it.
    k = len(diag)
    if end == 0 and _count_below(diag, squares, theta + tol) >= 2:
        return True
    if end == 1 and _count_below(diag, squares, theta - tol) <= k - 2:
        return True
    _, gamma, norm2, last, _ = _twisted(diag, squares, theta)
    return bool(np.isfinite(norm2)) and beta * np.sqrt(last) + abs(gamma) <= tol * np.sqrt(norm2)


def _twisted(diag, squares, x, r=None):
    # T - x I twisted at r: (T - x I) z = gamma_r e_r with z_r = 1. An r not
    # given is the index where |gamma_r|, from the down and up pivot lists, is
    # smallest, so that z is the inverse-iteration vector of the eigenvalue
    # nearest x. Returns r, gamma_r, ||z||^2, z_k^2 and the negative entries
    # of the twisted factor, which count the eigenvalues below x, all from one
    # pass: down pivots to r - 1, up pivots from the bottom to r + 1, and
    # z_j = -b_j z_(j+1) / down_j and z_j = -b_(j-1) z_(j-1) / up_j summed in
    # squares on either side of r. A pivot nudged off zero can overflow
    # ||z||^2.
    x = float(x)
    if r is None:
        down = np.array(_pivots(diag, squares, x))
        up = np.array(_pivots(diag[::-1], [0.0] + squares[:0:-1], x)[::-1])
        with np.errstate(over="ignore", invalid="ignore"):
            r = int(np.argmin(np.abs(down + up - (np.asarray(diag) - x))))
    count = 0
    pivot = 1.0
    head = 0.0
    for a, b, after in zip(diag[:r], squares[:r], squares[1:r + 1]):
        pivot = (a - x) - b / pivot
        if pivot == 0.0:
            pivot = -_TINY
        if pivot < 0.0:
            count += 1
        head = after / pivot / pivot * (1.0 + head)
    gamma = (diag[r] - x) - (squares[r] / pivot if r else 0.0)
    pivot = 1.0
    tail = 0.0
    last = 1.0
    for a, b, before in zip(diag[:r:-1], [0.0] + squares[:r + 1:-1], squares[:r:-1]):
        pivot = (a - x) - b / pivot
        if pivot == 0.0:
            pivot = -_TINY
        if pivot < 0.0:
            count += 1
        ratio = before / pivot / pivot
        tail = ratio * (1.0 + tail)
        last *= ratio
    if r < len(diag) - 1:
        gamma -= squares[r + 1] / pivot
    if gamma < 0.0:
        count += 1
    return r, gamma, 1.0 + head + tail, last, count


def _count_below(diag, squares, x):
    # number of eigenvalues below x: the negative pivots of T - x I = L D L^T,
    # by the recurrence of _pivots without keeping the pivots
    x = float(x)
    count = 0
    pivot = 1.0
    for a, b in zip(diag, squares):
        pivot = (a - x) - b / pivot
        if pivot == 0.0:
            pivot = -_TINY
        if pivot < 0.0:
            count += 1
    return count


def _pivots(diag, squares, x):
    # pivots of T - x I = L D L^T for the tridiagonal with this diagonal and
    # squared off-diagonal (squares[0] = 0); a zero pivot is nudged to -tiny.
    # A numpy scalar x would make every step numpy scalar arithmetic: the
    # same IEEE operations as Python floats, at three times the cost.
    x = float(x)
    out = []
    pivot = 1.0
    for a, b in zip(diag, squares):
        pivot = (a - x) - b / pivot
        if pivot == 0.0:
            pivot = -_TINY
        out.append(pivot)
    return out

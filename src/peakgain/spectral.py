"""Circulant / reversed-circulant spectra through the FFT.

A circulant matrix is diagonalized by the unitary DFT matrix; its eigenvalues
are the DFT of its first row, computed here with ``numpy.fft`` in
O(N log N). Reversing the row order of a circulant gives a real symmetric
matrix whose spectrum is the circulant spectrum folded onto the real axis:
index 0 keeps its value, interior conjugate pairs become a plus/minus
magnitude pair, and (for even N) the half-rate index flips sign.
"""

import numpy as np

from .lifting import CirculantSpec

__all__ = [
    "time_reverse",
    "circulant",
    "circulant_eigenvalues",
    "diagonalization_residual",
    "reversed_circulant",
    "reversed_spectrum",
    "max_gain_reset_based",
    "dominant_bin",
]


def time_reverse(v):
    """Reverse a signal in time: output l is input N+1-l. Involutory."""
    return np.asarray(v)[::-1].copy()


def _coefficients(spec):
    if isinstance(spec, CirculantSpec):
        return np.asarray(spec.a, dtype=float)
    return np.asarray(spec, dtype=float).reshape(-1)


def circulant(spec):
    """Circulant matrix with first row a: entry (p, q) is a[(q - p) mod N]."""
    a = _coefficients(spec)
    N = a.shape[0]
    idx = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N
    return a[idx]


def circulant_eigenvalues(spec):
    """Spectrum of circ(a): lambda_m = sum_k a_k exp(-2j*pi*m*k/N).

    This is the FFT of a (same sign convention); for coefficients coming
    from ``circulant_coefficients`` it equals the system's frequency response
    at z = exp(-2j*pi*m/N).
    """
    a = _coefficients(spec)
    if a.shape[0] == 0:
        raise ValueError("empty coefficient vector: a circulant needs N >= 1")
    return np.fft.fft(a)


def diagonalization_residual(M):
    """How diagonal F* M F is: (largest off-diagonal magnitude, diagonal).

    F is the unitary DFT matrix with entries exp(-2j*pi*p*q/N) / sqrt(N), so
    F* M F is an FFT along the rows of M followed by an inverse FFT along its
    columns, O(N^2 log N). Zero residual (to rounding) is specific to
    circulant M; a generic symmetric matrix leaves a nonzero residual.
    """
    M = np.asarray(M)
    N = M.shape[0]
    if M.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if N == 0:
        raise ValueError("empty matrix: the residual needs N >= 1")
    T = np.fft.fft(M, axis=1)
    np.fft.ifft(T, axis=0, out=T)
    diag = np.diag(T).copy()
    np.fill_diagonal(T, 0.0)
    return float(np.abs(T).max()), diag


def reversed_circulant(spec):
    """Row-reversed circulant: T_N circ(a). Real symmetric by construction."""
    R = circulant(spec)[::-1, :].copy()
    if not np.array_equal(R, R.T):
        raise AssertionError("row-reversed circulant came out asymmetric: construction bug")
    return R


def reversed_spectrum(lam, imag_tol=1e-10):
    """Real spectrum of the row-reversed circulant, indexed like the input.

    Entry 0 keeps lambda_0; for 0 < m < N/2 entry m is |lambda_m| and entry
    N-m is -|lambda_m|; for even N entry N/2 is -lambda_{N/2}. Requires the
    conjugate symmetry of a real coefficient vector, so lambda_0 (and
    lambda_{N/2} for even N) must be real up to ``imag_tol``.
    """
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    N = lam.shape[0]
    if N == 0:
        raise ValueError("empty spectrum")
    scale = 1.0 + float(np.abs(lam).max())
    if abs(lam[0].imag) > imag_tol * scale:
        raise ValueError(
            f"lambda_0 has imaginary part {lam[0].imag:.3g}; "
            "input is not the spectrum of a real circulant"
        )
    out = np.empty(N)
    out[0] = lam[0].real
    for m in range(1, (N + 1) // 2):
        mag = abs(lam[m])
        out[m] = mag
        out[N - m] = -mag
    if N % 2 == 0:
        half = lam[N // 2]
        if abs(half.imag) > imag_tol * scale:
            raise ValueError(
                f"lambda_{N // 2} has imaginary part {half.imag:.3g}; "
                "input is not the spectrum of a real circulant"
            )
        out[N // 2] = -half.real
    return out


def max_gain_reset_based(J):
    """Worst-case amplification of a single from-rest batch.

    Because the transpose of the batch response matrix J equals its
    time-reversed conjugation, T_N J is symmetric and the induced 2-norm of J
    is the largest eigenvalue magnitude of T_N J, solved with LAPACK. The
    test suite pins it against an independent Jacobi eigensolver.
    """
    J = np.asarray(J, dtype=float)
    N = J.shape[0]
    if J.shape != (N, N):
        raise ValueError(f"expected a square matrix, got shape {J.shape}")
    S = J[::-1, :].copy()
    scale = 1.0 + float(np.abs(S).max()) if N else 1.0
    if N and float(np.abs(S - S.T).max()) > 1e-10 * scale:
        raise ValueError(
            "T_N J is not symmetric; J does not look like a batch response "
            "(lower-triangular Toeplitz) matrix"
        )
    if N == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))


def dominant_bin(values):
    """Strongest DFT bin folded to 0..N//2; ties resolve to the smallest index.

    ``values`` may be a complex spectrum or a real signal; a real signal is
    transformed first. Conjugate symmetry makes bins m and N-m equivalent, so
    only the folded index is reported.
    """
    v = np.asarray(values)
    if not np.iscomplexobj(v):
        v = circulant_eigenvalues(v)  # DFT of a real vector, same convention
    mags = np.abs(v)
    N = mags.shape[0]
    return int(np.argmax(mags[: N // 2 + 1]))

"""Spectral structure: DFT diagonalization and the time-reversal trick.

The periodic response matrix M is circulant, so the unitary DFT matrix
diagonalizes it and its eigenvalues are frequency-response samples; their
peak magnitude is the gain the estimator is after. Those eigenvalues are
complex, which breaks a plain power iteration, but reversing M's row order
gives a real symmetric matrix whose spectrum folds the same magnitudes onto
the real axis. The folding rules are checked here against a dense symmetric
eigensolver.
"""

import numpy as np

from peakgain import (
    circulant_coefficients,
    circulant_eigenvalues,
    diagonalization_residual,
    freq_response,
    lift,
    parse_system_file,
    reversed_spectrum,
    tf_to_ss,
)

tf = parse_system_file("demos/delayed_resonator.txt")
ss = tf_to_ss(tf)
N = 50

max_off, diag = diagonalization_residual(lift(ss, N))
print(f"F M F* off-diagonal residual: {max_off:.3e}")

omegas = 2.0 * np.pi * np.arange(N) / N
response = freq_response(tf, omegas)
print(f"diagonal vs frequency response samples: {np.abs(diag - response).max():.3e}")

c = circulant_coefficients(ss, N)
lam = circulant_eigenvalues(c)
print(f"\npeak |lambda_m| over the N-point grid: {np.abs(lam).max():.9f}")
peak = int(np.argmax(np.abs(lam[: N // 2 + 1])))
print(f"attained at bin m = {peak} (omega = {2 * np.pi * peak / N:.4f} rad/sample)")
print(f"lambda_{peak} = {lam[peak]:.6f} -> complex, so it rotates a power iterate")

rev = reversed_spectrum(lam)
print(f"\nreversed-circulant top eigenvalue: {rev.max():.9f} (real, positive)")
print("interior magnitudes appear as +/- pairs:")
print(f"  rev[{peak}] = {rev[peak]:.6f}, rev[{N - peak}] = {rev[N - peak]:.6f}")

# the row-reversed circulant: column q of circ(c) is c shifted down by q
shifts = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
solved = np.linalg.eigvalsh(c[shifts][::-1])
predicted = np.sort(rev)
print(f"\nfolding rules vs np.linalg.eigvalsh: {np.abs(solved - predicted).max():.3e}")

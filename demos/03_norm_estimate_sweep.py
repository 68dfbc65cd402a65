"""Gain estimates as the batch length doubles: reset-free vs reset-based.

Reproduces the comparison between the two matrix-level estimates of the
worst-case gain. The reset-free value is the peak eigenvalue magnitude of the
periodic response (pure frequency discretization, no transients); the
reset-based value is the induced norm of the single-batch response, which
carries the truncation to one batch and is exactly zero until the batch
outlives the plant's dead time. Doubling N keeps earlier frequency points,
so the reset-free column can only improve.
"""

import numpy as np

from peakgain import (
    circulant_coefficients,
    circulant_eigenvalues,
    hinf_peak,
    max_gain_reset_based,
    parse_system_file,
    tf_to_ss,
)
from peakgain.lifting import impulse_response

tf = parse_system_file("demos/delayed_resonator.txt")
ss = tf_to_ss(tf)

oracle, omega = hinf_peak(tf)
print(f"reference gain (dense grid + refinement): {oracle:.12f}")
print(f"peak frequency: {omega:.8f} rad/sample\n")

print(f"{'N':>6} {'reset-free':>14} {'reset-based':>14} {'err free':>10} {'err based':>10}")
for k in range(9):
    N = 8 * 2**k
    lam = circulant_eigenvalues(circulant_coefficients(ss, N))
    free = float(np.abs(lam).max())
    based = max_gain_reset_based(impulse_response(ss, N))
    print(
        f"{N:>6} {free:>14.9f} {based:>14.9f} "
        f"{abs(free - oracle) / oracle:>10.2e} {abs(based - oracle) / oracle:>10.2e}"
    )

print("\nreset-based stays at zero until N exceeds the 50-sample dead time,")
print("and trails the reset-free estimate at every length after that")

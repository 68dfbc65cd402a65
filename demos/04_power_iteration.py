"""The reset-free power iteration running on the simulated plant.

The estimator never sees the model: it applies input batches to a session and
reads output batches back. Each input is held until the plant's output
settles (at most 10 batches), then the settled output is reversed in time, a
shifted copy of the input is added, and the sum is rescaled to input power
one. The gain readout converges to the peak gain over the batch frequency
grid, and the converged input itself turns into a sinusoid at the peak
frequency: the experiment designs itself.
"""

import numpy as np

from peakgain import (
    RESET_FREE,
    PowerIterationConfig,
    circulant_coefficients,
    circulant_eigenvalues,
    iterate_reset_free,
    new_session,
    parse_system_file,
    reversed_spectrum,
    select_shift,
    tf_to_ss,
)

tf = parse_system_file("demos/delayed_resonator.txt")
ss = tf_to_ss(tf)
N = 50


def dominant_bin(spectrum):
    # strongest DFT bin folded to 0..N//2: bins m and N-m are conjugates
    return int(np.argmax(np.abs(spectrum[: N // 2 + 1])))


lam = circulant_eigenvalues(circulant_coefficients(ss, N))
target = reversed_spectrum(lam).max()
print(f"target (top reversed eigenvalue at N = {N}): {target:.9f}")

session = new_session(ss, N, RESET_FREE)
shift = select_shift(session, N, rng_seed=0)
print(f"probed shift: {shift:.4f}")

config = PowerIterationConfig(
    shift=shift, max_updates=2000, convergence_tol=1e-7, rng_seed=0,
)
trace = iterate_reset_free(session, config)

print(f"\nconverged: {trace.converged} after {len(trace.updates)} updates "
      f"({session.batch_counter} batches)")
print(f"final estimate: {trace.estimate:.9f}  (error {abs(trace.estimate - target):.2e})")

print("\ngain readout along the run:")
for idx in (0, 1, 2, 4, 9, 24, len(trace.updates) - 1):
    if idx < len(trace.updates):
        print(f"  update {idx + 1:>4}: beta = {trace.updates[idx].beta: .6f}")

u_first, u_second, u_last = (trace.updates[i].u for i in (0, 1, -1))
print("\ndominant frequency bin of the input (grid peak is at "
      f"{dominant_bin(lam)}):")
print(f"  initial random input: bin {dominant_bin(np.fft.fft(u_first))}")
print(f"  after one update:     bin {dominant_bin(np.fft.fft(u_second))}")
print(f"  converged input:      bin {dominant_bin(np.fft.fft(u_last))}")

print("\nconverged input is a clean tone: first samples "
      f"{np.round(u_last[:5], 4)}")

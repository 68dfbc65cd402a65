"""Batch lifting, and why continuous operation beats resetting.

Walks through the two representations of a plant processed in length-N
blocks: the single-batch (from rest) response J, and the periodic response M
seen when the plant runs continuously under a repeating input. For a plant
with more dead time than the batch length, J is identically zero while M is
perfectly informative, which is the whole story of this package in one
matrix.
"""

import numpy as np

from peakgain import (
    RESET_FREE,
    circulant_coefficients,
    lift,
    new_session,
    parse_system_file,
    periodic_response_matrix,
    tf_to_ss,
)

tf = parse_system_file("demos/delayed_resonator.txt")
ss = tf_to_ss(tf)
print(f"demo plant: {tf}")
print(f"state dimension after realization: {ss.n}")

N = 50
lifted = lift(ss, N)
print(f"\nbatch length N = {N}")
print(f"max |J| (single from-rest batch response): {np.abs(lifted.J).max()}")
print("-> a reset-based experiment of this length measures exactly nothing")

M = periodic_response_matrix(lifted)
print(f"max |M| (settled periodic response): {np.abs(M).max():.6f}")
print("-> continuous operation sees the plant fine")

# M is circulant: each column is the previous column shifted down, so entry
# (p, q) is c[(p - q) mod N]. Its first column c, the impulse response
# periodized over N samples, comes in closed form from the state-space
# matrices.
c = circulant_coefficients(ss, N)
shifts = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
gap = np.abs(c[shifts] - M).max()
print(f"\n||circ(c) - M||_max = {gap:.3e} (closed form vs. direct solve)")

# and the closed form is not a model shortcut: holding one input period on
# the simulated plant, which starts from rest and is never reset, settles to
# exactly M u
rng = np.random.default_rng(0)
u = rng.standard_normal(N)
plant = new_session(ss, N, RESET_FREE)
for batch in range(8):
    y = plant.apply_batch(u).y
print(f"after 8 held batches: ||y - M u|| = {np.linalg.norm(y - M @ u):.3e}")

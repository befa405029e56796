"""Port-based teleportation with the pretty good measurement.

The sender measures her ports jointly with the input state and announces the
outcome; the receiver keeps the matching port.  With maximally entangled
resource pairs the channel is unitarily equivariant and its entanglement
fidelity climbs toward one as ports are added.
"""

import numpy as np

from pbtkit import channel_apply, entanglement_fidelity, pgm_dense, pgm_fidelity
from pbtkit.simulate import ProtocolRun, run, sample

# the closed form sums over Young diagrams alpha of n-2 boxes:
#   F = d^-(n+1) sum_alpha ( sum_{mu = alpha + box} sqrt(d_mu m_mu) )^2
print("entanglement fidelity of the teleportation channel, d = 2:")
print(f"{'ports':>6} {'closed form':>12} {'dense POVM':>12}")
for n in range(2, 7):
    f = entanglement_fidelity(n, 2, pgm_dense(n, 2))
    print(f"{n - 1:>6} {pgm_fidelity(n, 2):>12.8f} {f:>12.8f}")
for n in (11, 31, 61):
    print(f"{n - 1:>6} {pgm_fidelity(n, 2):>12.8f} {'not built':>12}")

n, d = 4, 2
povm = pgm_dense(n, d)
eta = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
out = channel_apply(n, d, povm, eta)
print(f"\nchannel output for a skewed input at n = {n}:")
print(np.round(out.real, 5))
print("trace:", np.trace(out).real)

report = run(ProtocolRun(3, 2, engine="dense-W"))
print("\nper-outcome probabilities at n = 3:", report.probabilities)
print("entanglement fidelity from the run:", report.fidelity)

hist = sample(ProtocolRun(3, 2, engine="dense-W", seed=11), shots=20000)
print("\n20000 sampled outcomes:", hist["counts"], "chi-square", round(hist["chi_square"], 3))

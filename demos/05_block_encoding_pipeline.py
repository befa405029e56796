"""Block-encodings, the measurement dilation and amplitude amplification.

The Kraus operators are assembled as unitary circuits over named registers:
coefficient-injection rows, register Schur transforms, the entangling stage
and port-superposition mixers.  Conditioning them on an outcome register
gives the measurement dilation, and the phase-modulated product boosts the
post-selected amplitude to one.  Everything below is verified against the
dense brute-force operators built independently.
"""

import numpy as np

from pbtkit import build_twisted, encode_kraus, kraus_ledger
from pbtkit.amplify import end_to_end
from pbtkit.blockenc import amplification_weights

n, d = 3, 2
x = xp = float(np.sqrt(2))
tw = build_twisted(n, d)

enc = encode_kraus(n, d, tw, 1, x, xp, mode="padded")
print(f"Kraus encoding for outcome 1 at n = {n}, d = {d}:")
print(f"  scale {enc.scale:.4f}, ancilla dimension {enc.ancilla_dim()}")
print(f"  block residual vs dense square root: {enc.verify():.3e}")

print("\npadded-mode ledger (scale, ancilla qubits):")
for row in kraus_ledger(n, d, x, xp, "padded"):
    print(f"  {row.name:<24} scale {row.scale:>9.4f}   qubits {row.ancilla_qubits}")

print("\ncompressed amplification run (exact boundary, three phases):")
res = end_to_end(n, d, "compressed")
print(f"  m = {res.m}, amplified residual {res.amplified_residual:.3e}")
print(f"  protocol-state trace distance {res.discrepancy:.3e}")
print(f"  outcome probability error {res.probability_error:.3e}")
print(f"  ancilla purity {res.ancilla_purity:.10f}")

x_amp, xp_amp = amplification_weights(n, d)
print(f"\nhonest amplification run (weights x = {x_amp:.6f}, x' = {xp_amp:.6f}):")
res = end_to_end(n, d, "honest")
print(f"  m = {res.m}, epsilon = {res.epsilon:.3e}")
print(f"  amplified residual {res.amplified_residual:.3e} <= 2 m epsilon = {res.amplified_bound:.3e}")
print(f"  outcome probability error {res.probability_error:.3e}")
print(f"  ancilla weight on zero {res.ancilla_zero_weight:.6f}")

"""Port-based teleportation with the pretty good measurement.

Dense brute-force constructions of the POVM, the channel and the
entanglement fidelity live here, alongside the reconstruction of the Kraus
operators from the irrep-block data; the two routes must agree and the tests
enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


from .schur import partial_transpose_last, permutation_dense
from .symrep import embed_perm, transposition
from .twisted import TwistedSchur, maximally_entangled, mf_sqrt_pi

PINV_TOL = 1e-10


def rho_i_dense(n: int, d: int, i: int) -> np.ndarray:
    """State of port i: maximally entangled pair between qudit i and qudit n,
    maximally mixed elsewhere.  Equals the partially transposed two-cycle
    (i n) divided by d^(n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"port index i = {i} out of range")
    swap = permutation_dense(n, d, transposition(i - 1, n - 1, n))
    return partial_transpose_last(swap, n, d) / d ** (n - 1)


def rho_i_tensor(n: int, d: int, i: int) -> np.ndarray:
    """The same state built directly as a tensor product, for cross-checking."""
    phi = maximally_entangled(d)
    pair = np.outer(phi, phi.conj())
    rest = np.eye(d ** (n - 2)) / d ** (n - 2)
    # pair currently sits on qudits (n-1, n); permute qudit n-1 into slot i
    move = permutation_dense(n, d, embed_perm(transposition(i - 1, n - 2, n - 1), n))
    return move @ np.kron(rest, pair) @ move.conj().T


def rho_dense(n: int, d: int) -> np.ndarray:
    return sum(rho_i_dense(n, d, i) for i in range(1, n))


def principal_sqrt(op: np.ndarray, clip: float = 1e-12) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition."""
    evals, evecs = np.linalg.eigh(op)
    evals = np.where(evals > clip * max(evals.max(), 1.0), evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def _pinv_sqrt(op: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(op)
    cut = PINV_TOL * evals.max()
    inv = np.where(evals > cut, 1.0 / np.sqrt(np.where(evals > cut, evals, 1.0)), 0.0)
    return (evecs * inv) @ evecs.conj().T


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered measurement operators for ports 1..n-1; they sum to the
    identity and each is positive semidefinite."""

    n: int
    d: int
    operators: tuple[np.ndarray, ...]

    def validate(self, tol_sum: float = 1e-9, tol_psd: float = 1e-10) -> None:
        total = sum(self.operators)
        if np.abs(total - np.eye(self.d**self.n)).max() > tol_sum:
            raise ArithmeticError("POVM does not sum to the identity")
        for op in self.operators:
            if np.linalg.eigvalsh(op).min() < -tol_psd:
                raise ArithmeticError("POVM element not positive semidefinite")


def pgm_dense(n: int, d: int) -> Povm:
    """Pretty good measurement for the port states, built by brute force.

    The inverse square root of the average state is taken on its support; the
    orthogonal complement is spread uniformly over the outcomes so the
    operators sum to the identity.
    """
    rho = rho_dense(n, d)
    rinv = _pinv_sqrt(rho)
    tilde = [rinv @ rho_i_dense(n, d, i) @ rinv for i in range(1, n)]
    delta = (np.eye(d**n) - sum(tilde)) / (n - 1)
    ops = tuple(t + delta for t in tilde)
    povm = Povm(n, d, ops)
    povm.validate()
    return povm


@dataclass(frozen=True, eq=False)
class Channel:
    """Teleportation channel induced by a measurement family: measure the
    ports jointly with the input, keep the matching receiver port, relabel
    it as the output.  Trace preserving on density inputs."""

    n: int
    d: int
    povm: Povm

    def apply(self, eta: np.ndarray) -> np.ndarray:
        return channel_apply(self.n, self.d, self.povm, eta)

    def matrix(self) -> np.ndarray:
        return apply_channel_matrix(self.n, self.d, self.povm)


def pgm_channel(n: int, d: int) -> Channel:
    return Channel(n, d, pgm_dense(n, d))


def pgm_tilde_dense(n: int, d: int) -> list[np.ndarray]:
    """The support-restricted parts of the PGM operators, without the
    complement share."""
    rho = rho_dense(n, d)
    rinv = _pinv_sqrt(rho)
    return [rinv @ rho_i_dense(n, d, i) @ rinv for i in range(1, n)]


def kraus_from_twisted(n: int, d: int, tw: TwistedSchur, i: int) -> np.ndarray:
    """Kraus operator sqrt(Pi_i) assembled from the irrep blocks.

    The support part is the blockwise square root conjugated back through the
    twisted transform; the complement contributes the orthogonal projector
    scaled by 1/sqrt(n-1).
    """
    if (tw.n, tw.d) != (n, d):
        raise ValueError("twisted transform built for different (n, d)")
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    for blk in tw.blocks:
        m = mf_sqrt_pi(n, d, blk.alpha, i)
        out += blk.f @ m @ blk.f.conj().T
    out += (np.eye(dim) - tw.hm_projector) / np.sqrt(n - 1)
    return out


def sqrt_tilde_norm(n: int, d: int, i: int) -> float:
    """Spectral norm of the support part of the Kraus operator, from the
    irrep blocks alone."""
    from .partitions import enumerate_partitions

    worst = 0.0
    for alpha in enumerate_partitions(n - 2, d):
        m = mf_sqrt_pi(n, d, alpha, i)
        worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def channel_apply(n: int, d: int, povm: Povm, eta: np.ndarray) -> np.ndarray:
    """Output of the teleportation channel on input ``eta``.

    For each outcome the receiver keeps only the matching port, so the term
    is evaluated on the sender's n qudits plus a single receiver qudit, with
    the port pair maximally entangled and the rest maximally mixed.
    """
    if eta.shape != (d, d):
        raise ValueError("input state must be a single-qudit operator")
    dim_b = d
    out = np.zeros((dim_b, dim_b), dtype=complex)
    phi = maximally_entangled(d)
    pair = np.outer(phi, phi.conj())
    for i, op in enumerate(povm.operators, start=1):
        state = _port_resource_state(n, d, i, pair, eta)
        joint = np.kron(op, np.eye(dim_b)) @ state
        # trace out the sender's n qudits (axes 0 of the (sender, receiver) split)
        out += joint.reshape(d**n, dim_b, d**n, dim_b).trace(axis1=0, axis2=2)
    return out


def _port_resource_state(n: int, d: int, i: int, pair: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Resource-and-input state on (ports 1..n-1, input qudit, one receiver
    qudit), with the receiver maximally entangled with port i."""
    rest = np.eye(d ** (n - 2)) / d ** (n - 2)
    # build with the entangled pair on (port n-1, receiver), then permute the
    # sender side so the pair sits on port i
    state = np.kron(rest, _pair_with_receiver(pair, eta, d))
    move = permutation_dense(n + 1, d, embed_perm(transposition(i - 1, n - 2, n - 1), n + 1))
    return move @ state @ move.conj().T


def _pair_with_receiver(pair: np.ndarray, eta: np.ndarray, d: int) -> np.ndarray:
    """Operator on (port, input, receiver) with the pair on (port, receiver)."""
    op = np.kron(pair, eta)  # (port, receiver, input)
    return op.reshape(d, d, d, d, d, d).transpose(0, 2, 1, 3, 5, 4).reshape(d**3, d**3)


def apply_channel_matrix(n: int, d: int, povm: Povm) -> np.ndarray:
    """The channel as a d^2 x d^2 matrix acting on vectorized inputs."""
    cols = []
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            cols.append(channel_apply(n, d, povm, unit).reshape(-1))
    return np.stack(cols, axis=1)


def entanglement_fidelity(n: int, d: int, povm: Povm, cross_check: bool = True) -> float:
    """How well the channel preserves entanglement with a reference.

    Computed as (1/d^2) sum_i tr(Pi_i rho_i'); with ``cross_check`` the
    ancilla form (overlap of the Choi state with the maximally entangled
    state) is evaluated as well and must agree to 1e-10.
    """
    direct = 0.0
    for i, op in enumerate(povm.operators, start=1):
        direct += float(np.real(np.trace(op @ rho_i_dense(n, d, i))))
    direct /= d**2
    if cross_check:
        chan = apply_channel_matrix(n, d, povm)
        choi = 0.0
        for a in range(d):
            for b in range(d):
                out = chan[:, a * d + b].reshape(d, d)
                choi += out[a, b]
        ancilla_form = float(np.real(choi)) / d**2
        if abs(ancilla_form - direct) > 1e-10:
            raise ArithmeticError(
                f"fidelity forms disagree: {ancilla_form} vs {direct}"
            )
    return direct

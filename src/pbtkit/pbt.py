"""Port-based teleportation with the pretty good measurement.

The entanglement fidelity and the outcome probabilities have closed forms,
and so does every function of a measurement operator: each port block is a
multiple of a projector, so ``pgm_function`` builds g(Pi_i), the Kraus
operator sqrt(Pi_i) among them, from the irrep blocks.  The measurement is
covariant under port permutations, Pi_i = V(1 i) Pi_1 V(1 i), so
``pgm_functions`` builds port 1's operator once and copies every other
port's from it by the port swap, a transpose of qudit axes;
``measurement_functions`` runs it, size guard first, for the matrix exports.
With maximally entangled resource pairs the receiver's output for outcome i is a partial trace of Pi_i
(``outcome_output``).  That output, the dense brute-force POVM, channel and
entanglement fidelity stay only as the oracle the closed forms are checked
on, the dense-W engine's depolarizing form among them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .partitions import add_box, dim_specht, dim_weyl, enumerate_partitions
from .schur import guard_dense, partial_transpose_last, permutation_dense
from .symrep import transposition
from .twisted import TwistedSchur, build_twisted, mf_pi, mf_sqrt_pi, pseudo_scale

PINV_TOL = 1e-10


def rho_i_dense(n: int, d: int, i: int) -> np.ndarray:
    """State of port i: maximally entangled pair between qudit i and qudit n,
    maximally mixed elsewhere.  Equals the partially transposed two-cycle
    (i n) divided by d^(n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"port index i = {i} out of range")
    swap = permutation_dense(n, d, transposition(i - 1, n - 1, n))
    return partial_transpose_last(swap, n, d) / d ** (n - 1)


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
    """Pretty good measurement by brute force, the oracle of ``pgm_functions``.

    The inverse square root of the average state is taken on its support; the
    orthogonal complement is spread uniformly over the outcomes so the
    operators sum to the identity.
    """
    guard_dense(n, d, 2 * n)  # the n-1 support parts, the n-1 operators, rho and its root
    tilde = pgm_tilde_dense(n, d)
    delta = (np.eye(d**n) - sum(tilde)) / (n - 1)
    ops = tuple(t + delta for t in tilde)
    povm = Povm(n, d, ops)
    povm.validate()
    return povm


def pgm_fidelity(n: int, d: int) -> float:
    """Entanglement fidelity of PGM teleportation over n-1 ports, in closed
    form (Studzinski, Strelchuk, Mozrzymas & Horodecki, arXiv:1612.09260):

        F = d^-(n+1) sum_{alpha |- n-2} ( sum_{mu = alpha + box} sqrt(d_mu m_mu) )^2

    over diagrams of at most d rows.  Each term under the root is an exact
    integer quotient, so it stays a correctly rounded float however large
    d_mu m_mu grows.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    scale = d ** (n + 1)
    return sum(
        sum(sqrt(dim_specht(mu) * dim_weyl(mu, d) / scale) for mu in add_box(alpha, d).children)
        ** 2
        for alpha in enumerate_partitions(n - 2, d)
    )


def pgm_probabilities(n: int) -> np.ndarray:
    """Outcome probabilities of PGM teleportation for any input: exactly
    1/(n-1) each.  The port states, and so the measurement, are permuted
    among themselves by the port permutations, which leave the resource
    state with any input unchanged."""
    return np.full(n - 1, 1.0 / (n - 1))


def pgm_tilde_dense(n: int, d: int) -> list[np.ndarray]:
    """The support-restricted parts of the PGM operators, without the
    complement share."""
    rho = rho_dense(n, d)
    rinv = _pinv_sqrt(rho)
    return [rinv @ rho_i_dense(n, d, i) @ rinv for i in range(1, n)]


def pgm_function(
    n: int, d: int, tw: TwistedSchur, i: int, g: Callable[[float], float]
) -> np.ndarray:
    """g(Pi_i) from the irrep blocks, as one product of the stacked blocks.

    Pi_i is f M f^+ on block alpha, with M @ M = s_alpha M, and 1/(n-1) off
    the support, so g(Pi_i) = g(1/(n-1)) I
    + sum_blocks f [(g(s) - g(0))/s M + (g(0) - g(1/(n-1))) I] f^+.
    """
    if (tw.n, tw.d) != (n, d):
        raise ValueError("twisted transform built for different (n, d)")
    off, zero = g(1.0 / (n - 1)), g(0.0)
    inner = {}
    for alpha in enumerate_partitions(n - 2, d):
        s = pseudo_scale(n, d, alpha)
        m = mf_pi(n, d, alpha, i)
        inner[alpha] = (g(s) - zero) / s * m + (zero - off) * np.eye(len(m))
    f = np.concatenate([b.f for b in tw.blocks], axis=1)
    fg = np.concatenate([b.f @ inner[b.alpha] for b in tw.blocks], axis=1)
    out = fg @ f.T
    out[np.diag_indices_from(out)] += off
    return out


def kraus_from_twisted(n: int, d: int, tw: TwistedSchur, i: int) -> np.ndarray:
    """Kraus operator sqrt(Pi_i) assembled from the irrep blocks."""
    return pgm_function(n, d, tw, i, np.sqrt)


def pgm_functions(
    n: int, d: int, tw: TwistedSchur, g: Callable[[float], float]
) -> Iterator[np.ndarray]:
    """g(Pi_i) for ports i = 1..n-1, one at a time: g(Pi_1) from the irrep
    blocks, and every other port's by port covariance,
    g(Pi_i) = V(1 i) g(Pi_1) V(1 i), which exchanges qudits 1 and i on the
    row and the column side: an exact transpose copy of port 1's operator
    over its qudit axes.  The first operator yielded is the one the others
    are copied from."""
    first = pgm_function(n, d, tw, 1, g)
    yield first
    for i in range(2, n):
        # axes (qudit 1, qudits 2..i-1, qudit i, qudits i+1..n), rows then columns
        split = first.reshape((d, d ** (i - 2), d, d ** (n - i)) * 2)
        yield split.transpose(2, 1, 0, 3, 6, 5, 4, 7).reshape(first.shape)


def measurement_functions(n: int, d: int, g: Callable[[float], float]) -> Iterator[np.ndarray]:
    """``pgm_functions`` on the twisted transform at (n, d), for the matrix
    exports, refused before it is built when the one product does not fit:
    the real twisted blocks, stacked f, fg and product, and the file's
    complex copy (traced peaks of ``pbt export kraus``, in complex d^n x d^n
    matrices: 2.9 at (8,2), 2.7 at (9,2), 2.3 at (6,3) and 2.6 at (5,3);
    the store's hasher thread is joined before the next block is copied, so
    it adds none); ports >= 2 are transpose copies of port 1's operator."""
    guard_dense(n, d, 6)
    return pgm_functions(n, d, build_twisted(n, d), g)


def sqrt_tilde_norm(n: int, d: int, i: int) -> float:
    """Spectral norm of the support part of the Kraus operator, from the
    irrep blocks alone."""
    worst = 0.0
    for alpha in enumerate_partitions(n - 2, d):
        m = mf_sqrt_pi(n, d, alpha, i)
        worst = max(worst, float(np.linalg.norm(m, 2)))
    return worst


def outcome_output(
    n: int, d: int, op: np.ndarray, i: int, eta: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized receiver output for outcome i, whose trace is the
    outcome's probability; ``op`` is the measurement operator Pi_i.

    The resource pairs are maximally entangled, so by the transpose trick the
    output depends on Pi_i only through M_i = Tr_{ports != i} Pi_i, a
    d^2 x d^2 operator on (port i, input).  With the input entangled with a
    reference (``eta`` None) the joint (receiver, reference) output is
    M_i^T / d^n; for an input ``eta`` the receiver's output is
    (Tr_input[M_i (I (x) eta)])^T / d^(n-1).
    """
    before, after = d ** (i - 1), d ** (n - 1 - i)
    m = np.einsum("aibxacby->ixcy", op.reshape(before, d, after, d, before, d, after, d))
    if eta is None:
        return m.reshape(d * d, d * d).T / d**n
    return np.einsum("ixcy,yx->ci", m, eta) / d ** (n - 1)


def channel_apply(n: int, d: int, povm: Povm, eta: np.ndarray) -> np.ndarray:
    """Output of the teleportation channel on input ``eta``: the sum of the
    receiver's outputs over the outcomes (``outcome_output``).  ``eta`` may
    be any d x d operator; the channel is linear in it."""
    if eta.shape != (d, d):
        raise ValueError("input state must be a single-qudit operator")
    return sum(outcome_output(n, d, op, i, eta) for i, op in enumerate(povm.operators, start=1))


def apply_channel_matrix(n: int, d: int, povm: Povm) -> np.ndarray:
    """The channel as a d^2 x d^2 matrix acting on vectorized inputs."""
    cols = []
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            cols.append(channel_apply(n, d, povm, unit).reshape(-1))
    return np.stack(cols, axis=1)


def entanglement_fidelity(n: int, d: int, povm: Povm) -> float:
    """How well the channel of a dense measurement preserves entanglement
    with a reference, in the direct form (1/d^2) sum_i tr(Pi_i rho_i)."""
    direct = 0.0
    for i, op in enumerate(povm.operators, start=1):
        direct += float(np.real(np.trace(op @ rho_i_dense(n, d, i))))
    return direct / d**2

"""Irrep blocks of the partially transposed permutation algebra on n qudits.

The ideal generated by elements that move the last qudit is supported on the
subspace spanned by product states maximally entangled between one of the
first n-1 qudits and the last.  Each irrep block is labelled by a diagram
``alpha`` on n-2 boxes and a multiplicity copy ``r``; its spanning vectors,
Gram spectrum, real orthonormal f basis and the matrix forms of the algebra
generators are all computed here.  The f basis is built in one way only, the
direct form f = psi z from the (n-2)-qudit Schur transform; its factored form
through the (n-1)-qudit Schur transform is kept as an oracle
(``factored_residual``), next to the Gram and pseudoprojector checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .partitions import (
    BoxAddition,
    Partition,
    add_box,
    dim_specht,
    dim_weyl,
    enumerate_partitions,
)
from .schur import (
    build_schur,
    guard_dense,
    permutation_operator,
    submatrix_U_alpha,
    submatrix_U_nu_alpha,
    value_cache,
)
from .symrep import (
    Perm,
    branching_slices,
    embed_perm,
    prir_rows,
    transposition,
    yor,
)

GRAM_TOL = 1e-8
PSEUDO_TOL = 1e-9
FACTORED_TOL = 1e-10
ORTHO_TOL = 1e-9


def _validate_block_args(n: int, d: int, alpha: Partition) -> BoxAddition:
    if n < 2:
        raise ValueError("need n >= 2")
    if alpha.n != n - 2:
        raise ValueError(f"alpha must have {n - 2} boxes, got {alpha.n}")
    if alpha.height() > d:
        raise ValueError(f"alpha = {alpha} taller than d = {d}")
    return add_box(alpha, d)


def port_cycle(k: int, n: int) -> Perm:
    """The two-cycle (k, n-1) on n-1 points, 1-based k, as a 0-based tuple."""
    return transposition(k - 1, n - 2, n - 1)


def lambda_eigenvalue(n: int, d: int, alpha: Partition, nu: Partition) -> float:
    """Gram eigenvalue attached to the block nu = alpha + box:
    (n-1) m_nu d_alpha / (m_alpha d_nu)."""
    frac = Fraction(
        (n - 1) * dim_weyl(nu, d) * dim_specht(alpha),
        dim_weyl(alpha, d) * dim_specht(nu),
    )
    return float(frac)


def block_dimension(alpha: Partition, d: int) -> int:
    """D_alpha: total dimension of one irrep block, summing child Specht dims."""
    return sum(dim_specht(nu) for nu in add_box(alpha, d).children)


def nu_index(n: int, d: int, alpha: Partition) -> tuple[tuple[Partition, Partition, int], ...]:
    """(nu, xi, j) row labels of a block, nu outer, then xi blocks in basis order."""
    out = []
    for nu in add_box(alpha, d).children:
        for xi, a, b in branching_slices(nu):
            for j in range(b - a):
                out.append((nu, xi, j))
    return tuple(out)


def maximally_entangled(d: int) -> np.ndarray:
    """|phi+> on two qudits, unit norm."""
    v = np.zeros(d * d)
    v[(d + 1) * np.arange(d)] = 1.0 / np.sqrt(d)
    return v


def _port_gathers(m: int, d: int, n: int) -> list[np.ndarray]:
    """Source indices of V[(k, n-1)] on m qudits for ports k = 1..n-1.  Each
    is a two-cycle, so each gather is its own inverse."""
    return [
        permutation_operator(m, d, embed_perm(port_cycle(k, n), m)).source_index()
        for k in range(1, n)
    ]


def _spanning_rows(rows: np.ndarray, d: int, gathers: list[np.ndarray]) -> np.ndarray:
    """psi^T: row (k, k_alpha), k outer, is sqrt(d) V[(k, n-1)] applied to
    Schur row k_alpha tensored with the maximally entangled pair."""
    kets = np.sqrt(d) * np.kron(rows, maximally_entangled(d))
    return np.concatenate([kets[:, src] for src in gathers])


def psi_vectors(n: int, d: int, alpha: Partition, r: int = 1, gauge_seed: int = 0) -> np.ndarray:
    """Spanning columns of one irrep block, each of squared norm d.

    Column (k, k_alpha), k outer, is sqrt(d) V[(k, n-1)] applied to the Schur
    basis state (alpha, r, k_alpha) on the first n-2 qudits tensored with the
    maximally entangled pair on qudits n-1, n.
    """
    _validate_copy(n, d, alpha, r)
    rows = build_schur(n - 2, d, gauge_seed).block_rows(alpha, r)
    return _spanning_rows(rows, d, _port_gathers(n, d, n)).T


def _validate_copy(n: int, d: int, alpha: Partition, r: int) -> None:
    _validate_block_args(n, d, alpha)
    if not 1 <= r <= dim_weyl(alpha, d):
        raise ValueError(f"multiplicity copy r = {r} out of range for {alpha}")


def gram_spectrum(
    n: int, d: int, alpha: Partition, r: int = 1, gauge_seed: int = 0, check: bool = True
) -> dict[Partition, float]:
    """Closed-form Gram eigenvalues {nu: lambda_nu}, verified against the
    numerically diagonalized Gram matrix of the spanning vectors.

    The Gram matrix has each lambda_nu with multiplicity dim(nu), padded by
    zeros when the spanning vectors are linearly dependent.  A mismatch beyond
    GRAM_TOL raises.
    """
    box = _validate_block_args(n, d, alpha)
    if check and gram_residual(n, d, alpha, r, gauge_seed) > GRAM_TOL:
        raise ArithmeticError(f"Gram spectrum mismatch for n={n}, d={d}, alpha={alpha}")
    return {nu: lambda_eigenvalue(n, d, alpha, nu) for nu in box.children}


def gram_residual(n: int, d: int, alpha: Partition, r: int = 1, gauge_seed: int = 0) -> float:
    """Largest gap between the closed-form Gram spectrum (each lambda_nu
    dim(nu) times, padded by zeros) and the eigenvalues of the numerically
    formed Gram matrix of the spanning vectors."""
    box = _validate_block_args(n, d, alpha)
    psi = psi_vectors(n, d, alpha, r, gauge_seed)
    expected = []
    for nu in box.children:
        expected.extend([lambda_eigenvalue(n, d, alpha, nu)] * dim_specht(nu))
    expected.extend([0.0] * box.theta_dim())
    got = np.linalg.eigvalsh(psi.T @ psi)
    return float(np.abs(np.sort(np.array(expected)) - got).max())


def z_matrix(n: int, d: int, alpha: Partition) -> tuple[np.ndarray, ...]:
    """Per-port blocks of the rescaled change-of-basis matrix.

    Block k has shape (dim alpha) x D_alpha; its nu columns are
    [(n-1) d_alpha]^(-1/2) sqrt(d_nu / lambda_nu) times the alpha row-block of
    yor(nu, (k, n-1)).
    """
    box = _validate_block_args(n, d, alpha)
    d_alpha = dim_specht(alpha)
    lam = {nu: lambda_eigenvalue(n, d, alpha, nu) for nu in box.children}
    blocks = []
    for k in range(1, n):
        pk = port_cycle(k, n)
        cols = []
        for nu in box.children:
            c = np.sqrt(dim_specht(nu) / lam[nu]) / np.sqrt((n - 1) * d_alpha)
            cols.append(c * prir_rows(nu, pk, alpha))
        blocks.append(np.concatenate(cols, axis=1))
    return tuple(blocks)


def z_stacked(n: int, d: int, alpha: Partition) -> np.ndarray:
    return np.concatenate(z_matrix(n, d, alpha), axis=0)


@dataclass(frozen=True, eq=False)
class IrrepBlock:
    """One (alpha, r) irrep block: the real orthonormal f basis of ``f_basis``
    and its (nu, xi, j) labels."""

    n: int
    d: int
    alpha: Partition
    r: int
    f: np.ndarray
    nu_index: tuple[tuple[Partition, Partition, int], ...]

    @property
    def dim(self) -> int:
        return self.f.shape[1]


def _check_orthonormal(f: np.ndarray) -> float:
    """max |f^T f - I|, raising beyond ORTHO_TOL."""
    err = float(np.abs(f.T @ f - np.eye(f.shape[1])).max())
    if err > ORTHO_TOL:
        raise ArithmeticError(f"f basis not orthonormal, residual {err:.2e}")
    return err


def f_basis(n: int, d: int, alpha: Partition, r: int = 1, gauge_seed: int = 0) -> IrrepBlock:
    """Orthonormal basis decomposing one irrep block under S(n-1).

    Columns are psi . z in (nu, xi, j) order; orthonormality is checked to
    ORTHO_TOL.
    """
    _validate_copy(n, d, alpha, r)
    (block,) = _diagram_blocks(n, d, alpha, (r,), gauge_seed, _port_gathers(n, d, n))
    return block


def _diagram_blocks(
    n: int,
    d: int,
    alpha: Partition,
    copies: Iterable[int],
    gauge_seed: int,
    gathers: list[np.ndarray],
) -> Iterator[IrrepBlock]:
    """The f bases of diagram alpha's multiplicity copies ``copies``.  z and
    the (nu, xi, j) labels depend on alpha alone and are formed once; each
    copy forms only its Schur rows, psi^T and f = psi z, checked
    orthonormal.  ``gathers`` are the port gathers of ``_port_gathers``."""
    schur = build_schur(n - 2, d, gauge_seed)
    z = z_stacked(n, d, alpha)
    labels = nu_index(n, d, alpha)
    for r in copies:
        f = _spanning_rows(schur.block_rows(alpha, r), d, gathers).T @ z
        _check_orthonormal(f)
        yield IrrepBlock(n, d, alpha, r, f, labels)


def factored_residual(n: int, d: int, alpha: Partition, r: int = 1, gauge_seed: int = 0) -> float:
    """max |f^T - inner psi^T|: how far the f basis is from its factored form.

    The factored block is sum_k inner_k (Schur rows (x) phi+ bra) V(k, n-1),
    with inner_k = sum_nu c_nu U_alpha V(k, n-1) U_nu^T on n-1 qudits, read
    from the (n-1)-qudit Schur transform, and c_nu the z scale
    sqrt(d_nu / lambda_nu) / sqrt((n-1) d_alpha); stacked over the ports it
    is one product of inner with psi^T.
    """
    box = _validate_block_args(n, d, alpha)
    sch1 = build_schur(n - 1, d, gauge_seed)
    w = sum(
        np.sqrt(dim_specht(nu) / lambda_eigenvalue(n, d, alpha, nu))
        * submatrix_U_nu_alpha(sch1, nu, alpha)
        for nu in box.children
    )
    ws = np.concatenate([w[:, src] for src in _port_gathers(n - 1, d, n)])
    inner = submatrix_U_alpha(sch1, alpha) @ ws.T / np.sqrt((n - 1) * dim_specht(alpha))
    psi = psi_vectors(n, d, alpha, r, gauge_seed)
    f = f_basis(n, d, alpha, r, gauge_seed).f
    return float(np.abs(f.T - inner @ psi.T).max())


# ---------------------------------------------------------------------------
# matrix forms of the algebra generators in the f basis


def _weighted_blocks(
    n: int, d: int, alpha: Partition, i: int, weight: dict[Partition, float]
) -> np.ndarray:
    """Block matrix over the child diagrams of alpha whose (om, nu) block is
    sqrt(d_om d_nu) sqrt(w_om w_nu) / ((n-1) d_alpha) R_om^T R_nu, with R the
    alpha rows of yor(., (i, n-1)): the port-i measurement operator at unit
    weights, the partially transposed two-cycle (i n) at w = lambda."""
    d_alpha = dim_specht(alpha)
    rows = {nu: prir_rows(nu, port_cycle(i, n), alpha) for nu in add_box(alpha, d).children}
    dim = block_dimension(alpha, d)
    out = np.zeros((dim, dim))
    oa = 0
    for om in rows:
        ob = oa + dim_specht(om)
        na = 0
        for nu in rows:
            nb = na + dim_specht(nu)
            c = (
                np.sqrt(dim_specht(nu) * dim_specht(om))
                * np.sqrt(weight[om] * weight[nu])
                / ((n - 1) * d_alpha)
            )
            out[oa:ob, na:nb] = c * (rows[om].T @ rows[nu])
            na = nb
        oa = ob
    return out


def pseudo_scale(n: int, d: int, alpha: Partition) -> float:
    """s_alpha = 1 - d_theta / ((n-1) d_alpha), the nonzero eigenvalue of every
    port block of alpha: ``mf_pi`` satisfies M @ M = s_alpha M."""
    return 1.0 - add_box(alpha, d).theta_dim() / ((n - 1) * dim_specht(alpha))


def mf_pi(n: int, d: int, alpha: Partition, i: int, check: bool = True) -> np.ndarray:
    """Matrix of the normalized measurement operator for port ``i`` in the f
    basis of block alpha: a (pseudo)projector with eigenvalues in
    {0, pseudo_scale(n, d, alpha)}."""
    box = _validate_block_args(n, d, alpha)
    if not 1 <= i <= n - 1:
        raise ValueError(f"port index i = {i} out of range")
    out = _weighted_blocks(n, d, alpha, i, dict.fromkeys(box.children, 1.0))
    if check and pseudo_residual(out, pseudo_scale(n, d, alpha)) > PSEUDO_TOL:
        raise ArithmeticError(
            f"pseudoprojector identity violated at n={n}, d={d}, alpha={alpha}, i={i}"
        )
    return out


def pseudo_residual(m: np.ndarray, scale: float) -> float:
    """max |M @ M - s M|: how far a port block is from s times a projector."""
    return float(np.abs(m @ m - scale * m).max())


def mf_sqrt_pi(n: int, d: int, alpha: Partition, i: int) -> np.ndarray:
    """Square root of the port-i block matrix, by eigenvalue scaling."""
    return mf_pi(n, d, alpha, i) / np.sqrt(pseudo_scale(n, d, alpha))


def mf_rho(n: int, d: int, alpha: Partition) -> np.ndarray:
    """Diagonal block matrix of the unnormalized state sum
    eta = sum_i V[(i n)]^(t_n) = d^(n-1) rho: each lambda_nu repeated dim(nu)
    times in (nu, xi, j) order."""
    box = _validate_block_args(n, d, alpha)
    diag = []
    for nu in box.children:
        diag.extend([lambda_eigenvalue(n, d, alpha, nu)] * dim_specht(nu))
    return np.diag(np.array(diag))


def mf_generator(
    n: int, d: int, alpha: Partition, sigma: Perm, transposed: bool
) -> np.ndarray:
    """Block-matrix form of a generator of the algebra.

    Two families cover all generators: permutations fixing the last qudit
    (``transposed`` irrelevant, must have sigma(n) = n), acting as the direct
    sum of irrep matrices over the child diagrams, and the partially
    transposed two-cycles (i n), handled by the rank-structured product
    formula with sqrt(lambda) weights.
    """
    box = _validate_block_args(n, d, alpha)
    if len(sigma) != n:
        raise ValueError("sigma must be a permutation of n points")
    dim = block_dimension(alpha, d)
    if sigma[n - 1] == n - 1:
        sub = tuple(sigma[: n - 1])
        out = np.zeros((dim, dim))
        pos = 0
        for nu in box.children:
            dn = dim_specht(nu)
            out[pos : pos + dn, pos : pos + dn] = yor(nu, sub).matrix
            pos += dn
        return out
    if not transposed:
        raise ValueError(
            "permutations moving the last qudit are only supported in "
            "partially transposed form on the generators (i n)"
        )
    lam = {nu: lambda_eigenvalue(n, d, alpha, nu) for nu in box.children}
    return _weighted_blocks(n, d, alpha, _two_cycle_port(sigma, n), lam)


def _two_cycle_port(sigma: Perm, n: int) -> int:
    i = sigma[n - 1]
    expected = transposition(i, n - 1, n)
    if tuple(sigma) != expected:
        raise ValueError("generator must be a two-cycle (i n)")
    return i + 1


# ---------------------------------------------------------------------------
# whole-space assembly


@dataclass(frozen=True, eq=False)
class TwistedSchur:
    """All irrep blocks of the ideal for given (n, d)."""

    n: int
    d: int
    blocks: tuple[IrrepBlock, ...]
    gauge_seed: int

    def hm_dimension(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def hm_projector(self) -> np.ndarray:
        """Projector onto the support subspace, formed from the stacked f
        bases on first read."""
        f = np.concatenate([b.f for b in self.blocks], axis=1)
        return f @ f.T


@value_cache
def build_twisted(n: int, d: int, gauge_seed: int = 0) -> TwistedSchur:
    """Build every (alpha, r) block as ``f_basis`` does, each checked for
    orthonormality; only the (n-2)-qudit Schur transform is built.  The port
    gathers are formed once, and z and the labels once per diagram."""
    guard_dense(n, d, 3)  # the blocks, their stacked f and what is formed from it
    gathers = _port_gathers(n, d, n)
    blocks = tuple(
        block
        for alpha in enumerate_partitions(n - 2, d)
        for block in _diagram_blocks(
            n, d, alpha, range(1, dim_weyl(alpha, d) + 1), gauge_seed, gathers
        )
    )
    return TwistedSchur(n, d, blocks, gauge_seed)

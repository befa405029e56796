"""Dense Schur transform on m qudits whose symmetric-group action is exactly
Young's orthogonal form.

The rows are the Young (Gelfand-Tsetlin) basis of Okounkov and Vershik.  For
each diagram the copies of its first last-letter tableau T1 span the joint
eigenspace of the Jucys-Murphy elements ``X_k = sum_{j<k} V((j k))`` at the
contents of T1, and the orthonormal basis that the eigenspace search
returns (weight spaces highest weight first) is the multiplicity basis
itself; a nonzero ``gauge_seed`` mixes it by a seeded orthogonal matrix.
Every other tableau s is reached from one already built, t, by an adjacent
transposition s_k, and Young's orthogonal form
``V(s_k) u_t = u_t / a + sqrt(1 - 1/a^2) u_s`` gives u_s.  So
``U V(sigma) U+`` is block diagonal with blocks ``I_m  (x)  yor(lambda,
sigma)`` by construction, which is the property every formula downstream
relies on, and the build never runs over the m! group elements.  Every
entry is real, so the transform is a real orthogonal float64 matrix.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .partitions import (
    Partition,
    add_box,
    dim_specht,
    dim_weyl,
    enumerate_partitions,
    remove_box,
)
from .symrep import (
    Perm,
    StandardTableau,
    adjacent_swap,
    standard_tableaux,
    transposition,
    yor,
)

DENSE_GUARD_BYTES = 2**31  # largest dense complex matrix built in one piece
_SIGN_TOL = 1e-9
ROW_NORM_TOL = 1e-8  # a Young-basis row's norm off 1, before it is normalized
UNITARY_TOL = 1e-10  # the assembled Schur transform off unitary


class DenseTooLarge(ValueError):
    """Dense d^m x d^m complex matrices would exceed ``DENSE_GUARD_BYTES``."""


@dataclass(frozen=True)
class PermutationOperator:
    """The natural action of a permutation on m qudits: V(sigma)|i_1 .. i_m> =
    |i_{sigma^-1(1)} .. i_{sigma^-1(m)}>."""

    m: int
    d: int
    perm: Perm

    def source_index(self) -> np.ndarray:
        """``apply(v)[q] = v[source_index[q]]`` over flat base-d indices."""
        return _perm_source_index(self.m, self.d, self.perm)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Permute a state vector (or the rows of a stack of vectors)."""
        return np.asarray(vec)[self.source_index()]

    def dense(self) -> np.ndarray:
        n = self.d**self.m
        out = np.zeros((n, n))
        out[np.arange(n), self.source_index()] = 1.0
        return out


@lru_cache(maxsize=None)
def _digit_table(m: int, d: int) -> np.ndarray:
    idx = np.arange(d**m)
    return np.stack([(idx // d ** (m - 1 - t)) % d for t in range(m)], axis=1)


@lru_cache(maxsize=None)
def _perm_source_index(m: int, d: int, perm: Perm) -> np.ndarray:
    # output slot t carries input slot sigma^-1(t), so the source state of an
    # output state q has digit q_{sigma(s)} in slot s
    digits = _digit_table(m, d)
    weights = d ** (m - 1 - np.arange(m))
    src = digits[:, list(perm)] @ weights
    src.flags.writeable = False
    return src


def permutation_operator(m: int, d: int, sigma: Perm) -> PermutationOperator:
    if len(sigma) != m:
        raise ValueError(f"permutation degree {len(sigma)} != m = {m}")
    return PermutationOperator(m, d, tuple(sigma))


def permutation_dense(m: int, d: int, sigma: Perm) -> np.ndarray:
    return permutation_operator(m, d, sigma).dense()


def partial_transpose_last(op: np.ndarray, m: int, d: int) -> np.ndarray:
    """Transpose on the last tensor factor only; involutive."""
    n = d**m
    if op.shape != (n, n):
        raise ValueError(f"operator must be {n} x {n}")
    blocks = op.reshape(d ** (m - 1), d, d ** (m - 1), d)
    return np.ascontiguousarray(blocks.transpose(0, 3, 2, 1)).reshape(n, n)


@dataclass(frozen=True, eq=False)
class SchurTransform:
    """Real orthogonal (float64) map to the irrep-adapted basis of m qudits
    plus its row labels.

    Row order groups by diagram (lexicographically decreasing), then
    multiplicity copy, then standard tableau in last-letter order, so the
    copy-r block of diagram lambda occupies contiguous rows.
    """

    m: int
    d: int
    matrix: np.ndarray
    index: tuple[tuple[Partition, int, StandardTableau], ...]
    gauge_seed: int

    def row_position(self, lam: Partition, r: int, path: StandardTableau) -> int:
        return _row_lookup(self)[(lam, r, path.growth)]

    def row(self, lam: Partition, r: int, path: StandardTableau) -> np.ndarray:
        """One row of the transform as a bra over the computational basis."""
        return np.array(self.matrix[self.row_position(lam, r, path)])

    def block_rows(self, lam: Partition, r: int) -> np.ndarray:
        """All rows of copy ``r`` of diagram ``lam``, in tableau order."""
        tabs = standard_tableaux(lam)
        start = self.row_position(lam, r, tabs[0])
        return np.array(self.matrix[start : start + len(tabs)])


@lru_cache(maxsize=None)
def _row_lookup(t: SchurTransform) -> dict:
    return {(lam, r, path.growth): i for i, (lam, r, path) in enumerate(t.index)}


def _fix_signs(cols: np.ndarray) -> np.ndarray:
    out = cols.copy()
    for j in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, j]) > _SIGN_TOL)
        if nz.size and out[nz[0], j] < 0:
            out[:, j] = -out[:, j]
    return out


def value_cache(func):
    """``lru_cache`` keyed on the argument values, defaults filled in: f(5, 2),
    f(5, 2, 0) and f(5, 2, gauge_seed=0) share one entry."""
    signature = inspect.signature(func)
    cached = lru_cache(maxsize=None)(func)

    @wraps(func)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    wrapper.cache_clear = cached.cache_clear
    return wrapper


def guard_dense(m: int, d: int, count: int = 1) -> None:
    """Raise DenseTooLarge, before anything is allocated, when ``count`` dense
    complex d^m x d^m matrices held at once exceed the guard.  Callers count
    in complex matrices even where they hold real ones, so refusal points do
    not depend on the dtype."""
    need = 16 * count * d ** (2 * m)
    if need > DENSE_GUARD_BYTES:
        raise DenseTooLarge(
            f"{count} dense {d}^{m} x {d}^{m} complex matrices held at once need "
            f"{need / 2**30:.1f} GiB, above the {DENSE_GUARD_BYTES / 2**30:.0f} GiB guard"
        )


def _jucys_murphy_eigenspace(m: int, d: int, contents: tuple[int, ...]) -> np.ndarray:
    """Orthonormal columns spanning the joint eigenspace on which each
    X_k = sum_{j<k} V((j k)) has eigenvalue ``contents[k]``.

    Permutations keep the number of each digit, so every weight space is
    searched on its own.  In it each X_k is restricted to the eigenspace of
    the ones before it and diagonalized there; the X_k commute, so the
    restriction is exact.
    """
    dim = d**m
    counts = (_digit_table(m, d)[:, :, None] == np.arange(d)).sum(axis=1)
    weight = np.unique(counts, axis=0, return_inverse=True)[1].ravel()
    found = []
    # highest weight (most zeros) first, so the one-qudit transform is the identity
    for w in range(weight.max(), -1, -1):
        members = np.flatnonzero(weight == w)
        basis = np.zeros((dim, members.size))
        basis[members, np.arange(members.size)] = 1.0
        for k in range(1, m):
            x_basis = sum(basis[_perm_source_index(m, d, transposition(j, k, m))] for j in range(k))
            evals, evecs = np.linalg.eigh(basis.T @ x_basis)
            # eigenvalues of X_k are integers, so 1/2 separates them
            basis = basis @ evecs[:, np.abs(evals - contents[k]) < 0.5]
        found.append(basis)
    return np.concatenate(found, axis=1)


@value_cache
def build_schur(m: int, d: int, gauge_seed: int = 0) -> SchurTransform:
    """Construct the m-qudit Schur transform as a dense real orthogonal matrix.

    The multiplicity basis of each diagram is the Jucys-Murphy eigenspace
    basis, highest weight first, with signs fixed.  ``gauge_seed`` != 0
    applies a seeded orthogonal mix (the QR factor of a seeded m_lambda x
    m_lambda Gaussian) to it; all downstream scalar quantities must be
    independent of this gauge.
    """
    if m < 0 or d < 1:
        raise ValueError("need m >= 0 and d >= 1")
    guard_dense(m, d)
    dim = d**m
    if m == 0:
        mat = np.eye(1)
        index = ((Partition(), 1, StandardTableau(Partition(), ())),)
        return SchurTransform(m, d, mat, index, gauge_seed)

    rng = np.random.default_rng(gauge_seed) if gauge_seed else None
    rows = np.zeros((dim, dim))
    index: list[tuple[Partition, int, StandardTableau]] = []
    cursor = 0
    for lam in enumerate_partitions(m, d):
        m_lam = dim_weyl(lam, d)
        tabs = standard_tableaux(lam)
        eigen = _jucys_murphy_eigenspace(m, d, tabs[0].contents())
        if eigen.shape[1] != m_lam:
            raise ArithmeticError(
                f"Jucys-Murphy eigenspace of {lam} has dimension {eigen.shape[1]}, "
                f"expected {m_lam}"
            )
        if rng is not None:
            eigen = eigen @ np.linalg.qr(rng.standard_normal((m_lam, m_lam)))[0]
        copies = {tabs[0].growth: _fix_signs(eigen)}
        # breadth-first over the tableau graph, edges by Young's orthogonal form
        queue = [tabs[0]]
        for tab in queue:
            u = copies[tab.growth]
            for k in range(1, m):
                ax, swapped = adjacent_swap(tab, k)
                if swapped is None or swapped.growth in copies:
                    continue
                moved = u[_perm_source_index(m, d, transposition(k - 1, k, m))]
                copies[swapped.growth] = (moved - u / ax) / np.sqrt(1.0 - 1.0 / ax**2)
                queue.append(swapped)
        block = np.stack([copies[tab.growth] for tab in tabs])  # (tableau, amplitude, copy)
        norms = np.linalg.norm(block, axis=1)
        worst = np.abs(norms - 1.0).max()
        if worst > ROW_NORM_TOL:
            raise ArithmeticError(f"Young-basis row norm off by {worst:.2e} for {lam}")
        size = m_lam * len(tabs)
        rows[cursor : cursor + size] = (block / norms[:, None, :]).transpose(2, 0, 1).reshape(size, dim)
        index.extend((lam, r + 1, tab) for r in range(m_lam) for tab in tabs)
        cursor += size
    if cursor != dim:
        raise ArithmeticError(f"assembled {cursor} rows, expected {dim}")
    err = np.abs(rows @ rows.T - np.eye(dim)).max()
    if err > UNITARY_TOL:
        raise ArithmeticError(f"Schur transform not unitary, residual {err:.2e}")
    rows.flags.writeable = False
    return SchurTransform(m, d, rows, tuple(index), gauge_seed)


def covariance_residual(t: SchurTransform, sigma: Perm) -> float:
    """Max deviation of U V(sigma) U+ from its exact block-diagonal irrep form."""
    conj = t.matrix @ permutation_dense(t.m, t.d, sigma) @ t.matrix.conj().T
    expected = np.zeros_like(conj)
    pos = 0
    for lam in enumerate_partitions(t.m, t.d):
        d_lam = dim_specht(lam)
        m_lam = dim_weyl(lam, t.d)
        block = np.kron(np.eye(m_lam), yor(lam, sigma).matrix)
        size = m_lam * d_lam
        expected[pos : pos + size, pos : pos + size] = block
        pos += size
    return float(np.abs(conj - expected).max())


def submatrix_U_nu_alpha(
    t: SchurTransform, nu: Partition, alpha: Partition, r_nu: int = 1
) -> np.ndarray:
    """Rows of copy ``r_nu`` of irrep ``nu`` whose tableau path passes through
    ``alpha``; shape (dim alpha) x d^m."""
    if alpha not in remove_box(nu):
        raise ValueError(f"{alpha} is not a one-box removal of {nu}")
    tabs = [tab for tab in standard_tableaux(nu) if tab.restricted_shape() == alpha]
    rows = [t.row_position(nu, r_nu, tab) for tab in tabs]
    return np.array(t.matrix[rows])


def submatrix_U_alpha(t: SchurTransform, alpha: Partition) -> np.ndarray:
    """Stack, over every ``nu = alpha + box`` of legal height and every
    removal ``xi`` of ``nu``, the rows of the first copy of ``nu``; row order
    is (nu, xi, tableau-within-xi) lexicographic in the fixed enumerations."""
    return np.concatenate([t.block_rows(nu, 1) for nu in add_box(alpha, t.d).children], axis=0)

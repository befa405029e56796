"""Young's orthogonal representations of the symmetric group.

Basis vectors of the irrep labelled by a partition are standard tableaux in
last-letter order, which makes every subgroup of the chain
S(m) > S(m-1) > ... > S(1) act block-diagonally.  ``prir_block`` extracts the
sub-blocks of that branching structure, the form in which irrep matrices
enter all downstream formulas.

Permutations are 0-based tuples ``p`` with ``p[i]`` the image of ``i``;
composition is ``(p * q)(i) = p(q(i))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import Partition, dim_specht, remove_box

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutation helpers


def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def transposition(i: int, j: int, m: int) -> Perm:
    """The two-cycle exchanging positions ``i`` and ``j`` (0-based) in S(m)."""
    p = list(range(m))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def embed_perm(p: Perm, m: int) -> Perm:
    """Extend a permutation by fixed points up to length ``m``."""
    if len(p) > m:
        raise ValueError("cannot embed into a smaller domain")
    return tuple(p) + tuple(range(len(p), m))


def adjacent_word(p: Perm) -> list[int]:
    """Indices k such that p = s_{k_last} ... s_{k_first}, s_k = (k, k+1) 0-based."""
    word: list[int] = []
    q = list(p)
    changed = True
    while changed:
        changed = False
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                word.append(i)
                changed = True
    # q . s_{w1} . s_{w2} ... = id  =>  p = s_{w_last} ... s_{w1} acting leftmost-last
    return word


# ---------------------------------------------------------------------------
# standard tableaux in last-letter order


@dataclass(frozen=True)
class StandardTableau:
    """A standard tableau given by the row index of each letter 1..n in turn."""

    shape: Partition
    growth: tuple[int, ...]

    def positions(self) -> tuple[tuple[int, int], ...]:
        """(row, col) of each letter, 0-based."""
        fill = [0] * (self.shape.height() + 1)
        pos = []
        for r in self.growth:
            pos.append((r, fill[r]))
            fill[r] += 1
        return tuple(pos)

    def contents(self) -> tuple[int, ...]:
        """Content (column - row) of each letter's box."""
        return tuple(c - r for r, c in self.positions())

    def restricted_shape(self) -> Partition:
        """Shape after deleting the box holding the largest letter."""
        return self.shape.with_box_removed(self.growth[-1])

    def rows(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.shape.height())]
        for letter, r in enumerate(self.growth, start=1):
            out[r].append(letter)
        return tuple(tuple(row) for row in out)

    def __str__(self) -> str:
        return "/".join(",".join(map(str, row)) for row in self.rows())


def lastletter_removals(nu: Partition) -> tuple[Partition, ...]:
    """One-box removals in the order their blocks appear in the irrep basis.

    This is removal-row descending, i.e. the results come out lexicographically
    decreasing; it is the reverse of :func:`pbtkit.partitions.remove_box`.
    """
    return tuple(reversed(remove_box(nu)))


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape ``lam`` in last-letter order.

    Tableaux whose largest letter restricts to the same shape are contiguous,
    with those groups ordered as in :func:`lastletter_removals`; the order is
    applied recursively within each group.
    """
    if lam.n == 0:
        return (StandardTableau(lam, ()),)
    out = []
    for i in reversed(lam.removable_rows()):
        sub = lam.with_box_removed(i)
        for t in standard_tableaux(sub):
            out.append(StandardTableau(lam, t.growth + (i,)))
    return tuple(out)


@lru_cache(maxsize=None)
def tableau_index(lam: Partition) -> dict[tuple[int, ...], int]:
    return {t.growth: i for i, t in enumerate(standard_tableaux(lam))}


@lru_cache(maxsize=None)
def branching_slices(nu: Partition) -> tuple[tuple[Partition, int, int], ...]:
    """(removal shape, start, stop) index ranges of the contiguous basis blocks."""
    out = []
    start = 0
    for xi in lastletter_removals(nu):
        d = dim_specht(xi)
        out.append((xi, start, start + d))
        start += d
    return tuple(out)


@dataclass(frozen=True)
class IrrepMatrix:
    """Orthogonal matrix of a permutation in the tableau basis of one irrep."""

    diagram: Partition
    element: Perm
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# Young's orthogonal form


def adjacent_swap(tab: StandardTableau, k: int) -> tuple[int, StandardTableau | None]:
    """Axial distance ``a`` = content(k+1) - content(k) of letters k, k+1
    (1-based) in ``tab``, and the tableau with those letters exchanged.

    The swapped tableau is None when the letters share a row (a = 1) or a
    column (a = -1).  Young's orthogonal form is
    ``s_k e_t = e_t / a + sqrt(1 - 1/a^2) e_swapped``.
    """
    pos = tab.positions()
    (r1, c1), (r2, c2) = pos[k - 1], pos[k]
    ax = (c2 - r2) - (c1 - r1)
    if r1 == r2 or c1 == c2:
        return ax, None
    growth = list(tab.growth)
    growth[k - 1], growth[k] = growth[k], growth[k - 1]
    return ax, StandardTableau(tab.shape, tuple(growth))


def yor_adjacent(lam: Partition, k: int) -> IrrepMatrix:
    """Matrix of the adjacent transposition (k, k+1), 1 <= k <= n-1 (letters)."""
    m = lam.n
    if not 1 <= k <= m - 1:
        raise ValueError(f"adjacent index k={k} out of range for n={m}")
    tabs = standard_tableaux(lam)
    idx = tableau_index(lam)
    dim = len(tabs)
    mat = np.zeros((dim, dim))
    for t, tab in enumerate(tabs):
        ax, swapped = adjacent_swap(tab, k)
        mat[t, t] = 1.0 / ax
        if swapped is not None:
            mat[t, idx[swapped.growth]] = np.sqrt(1.0 - 1.0 / ax**2)
    mat.flags.writeable = False
    return IrrepMatrix(lam, transposition(k - 1, k, m), mat)


@lru_cache(maxsize=None)
def _yor_matrix(lam: Partition, sigma: Perm) -> np.ndarray:
    m = lam.n
    out = np.eye(dim_specht(lam))
    # sigma . s_{w_1} ... s_{w_k} = id, hence yor(sigma) = Y(s_{w_k}) ... Y(s_{w_1})
    for k in adjacent_word(sigma):
        out = yor_adjacent(lam, k + 1).matrix @ out
    out.flags.writeable = False
    return out


def yor(lam: Partition, sigma: Perm) -> IrrepMatrix:
    """Orthogonal irrep matrix of an arbitrary permutation of {1..lam.n}."""
    if len(sigma) != lam.n:
        raise ValueError(f"permutation degree {len(sigma)} != {lam.n} boxes")
    return IrrepMatrix(lam, tuple(sigma), _yor_matrix(lam, tuple(sigma)))


def prir_block(
    nu: Partition, sigma: Perm, xi_row: Partition, xi_col: Partition
) -> np.ndarray:
    """Sub-block of ``yor(nu, sigma)`` between two branching blocks.

    Rows run over the basis vectors restricting to ``xi_row``, columns over
    those restricting to ``xi_col``; both must be one-box removals of ``nu``.
    For permutations fixing the last letter the off-diagonal blocks vanish.
    """
    slices = {xi: (a, b) for xi, a, b in branching_slices(nu)}
    if xi_row not in slices:
        raise ValueError(f"{xi_row} is not a one-box removal of {nu}")
    if xi_col not in slices:
        raise ValueError(f"{xi_col} is not a one-box removal of {nu}")
    r0, r1 = slices[xi_row]
    c0, c1 = slices[xi_col]
    return np.array(yor(nu, sigma).matrix[r0:r1, c0:c1])


def prir_rows(nu: Partition, sigma: Perm, xi_row: Partition) -> np.ndarray:
    """The full ``xi_row`` row-block of ``yor(nu, sigma)`` (all columns)."""
    slices = {xi: (a, b) for xi, a, b in branching_slices(nu)}
    if xi_row not in slices:
        raise ValueError(f"{xi_row} is not a one-box removal of {nu}")
    r0, r1 = slices[xi_row]
    return np.array(yor(nu, sigma).matrix[r0:r1, :])

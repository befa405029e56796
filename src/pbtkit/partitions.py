"""Integer partitions and Young-diagram combinatorics.

Partitions label irreducible representations of both the symmetric group
(Specht modules) and the unitary group (Weyl modules).  Everything here is
exact integer arithmetic on immutable values, so results are safe to cache
and share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Optional


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers; ``()`` is the partition of 0.

    Ordering is tuple-lexicographic, so ``sorted(..., reverse=True)`` yields the
    lexicographically decreasing order used for deterministic enumeration.
    """

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        rows = tuple(map(int, self.rows))
        object.__setattr__(self, "rows", rows)
        if rows and min(rows) < 1:
            raise ValueError(f"partition rows must be positive: {rows}")
        if list(rows) != sorted(rows, reverse=True):
            raise ValueError(f"partition rows must be weakly decreasing: {rows}")

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.rows)

    def height(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """Length of row ``i`` (0-based); 0 beyond the last row."""
        return self.rows[i] if 0 <= i < len(self.rows) else 0

    def conjugate(self) -> "Partition":
        if not self.rows:
            return Partition()
        cols = tuple(sum(1 for r in self.rows if r > j) for j in range(self.rows[0]))
        return Partition(cols)

    def cells(self) -> list[tuple[int, int]]:
        """All (row, col) box coordinates, 0-based, row-major."""
        return [(i, j) for i, r in enumerate(self.rows) for j in range(r)]

    def with_box_added(self, i: int) -> "Partition":
        """Add one box at the end of row ``i`` (may create row ``i == height``)."""
        if i == len(self.rows):
            return Partition(self.rows + (1,))
        rows = list(self.rows)
        rows[i] += 1
        return Partition(tuple(rows))

    def with_box_removed(self, i: int) -> "Partition":
        rows = list(self.rows)
        rows[i] -= 1
        if rows[i] == 0:
            rows.pop(i)
        return Partition(tuple(rows))

    def addable_rows(self) -> list[int]:
        """Row indices where a box can legally be added, ascending."""
        h = len(self.rows)
        return [i for i in range(h + 1) if i == 0 or self.row(i - 1) > self.row(i)]

    def removable_rows(self) -> list[int]:
        """Row indices where a box can legally be removed, ascending."""
        h = len(self.rows)
        return [i for i in range(h) if self.rows[i] > self.row(i + 1)]

    def __str__(self) -> str:
        return "()" if not self.rows else "(" + ",".join(map(str, self.rows)) + ")"


@dataclass(frozen=True)
class BoxAddition:
    """All legal one-box additions to ``parent`` with height capped at d.

    ``children`` are the additions of height <= d, ordered by the row index of
    the added box.  ``theta`` is the unique height-(d+1) addition, present
    exactly when ``parent`` already has height d.
    """

    parent: Partition
    children: tuple[Partition, ...]
    theta: Optional[Partition]

    def theta_dim(self) -> int:
        """dim of the excluded addition's Specht module; 0 when theta is absent."""
        return dim_specht(self.theta) if self.theta is not None else 0


def enumerate_partitions(n: int, max_height: int) -> list[Partition]:
    """All partitions of ``n`` with height <= ``max_height``, lexicographically decreasing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_height < 1:
        raise ValueError("max_height must be at least 1")
    return [Partition(rows) for rows in _partition_rows(n, max_height, n)]


@lru_cache(maxsize=None)
def _partition_rows(n: int, max_height: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    if max_height == 0 or max_part == 0:
        return ()
    out: list[tuple[int, ...]] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_rows(n - first, max_height - 1, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _hook_product(lam: Partition) -> int:
    """Product of the hook lengths of ``lam``.

    Column j has length k for rows[k] <= j < rows[k-1] (rows[h] = 0), so in
    row i the hooks r_i - j + k - i - 1 over those columns are one run of
    consecutive integers."""
    rows = lam.rows + (0,)
    return prod(
        prod(range(r + k - i - rows[k - 1], r + k - i - rows[k]))
        for i, r in enumerate(lam.rows)
        for k in range(i + 1, len(lam.rows) + 1)
    )


@lru_cache(maxsize=None)
def dim_specht(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam`` (hook length formula, exact)."""
    q, r = divmod(factorial(lam.n), _hook_product(lam))
    if r:
        raise ArithmeticError(f"hook product does not divide {lam.n}! for {lam}")
    return q


@lru_cache(maxsize=None)
def dim_weyl(lam: Partition, d: int) -> int:
    """Number of semistandard tableaux of shape ``lam`` with entries in 1..d.

    This is the dimension of the unitary-group irrep labelled by ``lam``;
    it vanishes when the diagram is taller than ``d``.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if lam.height() > d:
        return 0
    # cell (i, j) contributes d + j - i, so row i the run d - i .. d - i + r - 1
    num = prod(prod(range(d - i, d - i + r)) for i, r in enumerate(lam.rows))
    q, r = divmod(num, _hook_product(lam))
    if r:
        raise ArithmeticError(f"Weyl quotient not exact for {lam}, d={d}")
    return q


@lru_cache(maxsize=None)
def add_box(alpha: Partition, d: int) -> BoxAddition:
    """All one-box additions to ``alpha``: height-<=d children plus the optional theta."""
    if d < 1:
        raise ValueError("d must be at least 1")
    children = []
    theta = None
    for i in alpha.addable_rows():
        grown = alpha.with_box_added(i)
        if grown.height() <= d:
            children.append(grown)
        else:
            theta = grown
    return BoxAddition(parent=alpha, children=tuple(children), theta=theta)


@lru_cache(maxsize=None)
def remove_box(nu: Partition) -> tuple[Partition, ...]:
    """All one-box removals from ``nu``, ordered by removal row ascending."""
    if nu.n == 0:
        raise ValueError("cannot remove a box from the empty partition")
    return tuple(nu.with_box_removed(i) for i in nu.removable_rows())

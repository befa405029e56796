"""Independent references for checking `pbt` output.

Nothing here imports pbtkit.  The fidelity oracle is the closed form of the
pretty-good-measurement entanglement fidelity (Studzinski, Strelchuk,
Mozrzymas & Horodecki, arXiv:1612.09260):

    F(n, d) = d^-(n+1) * sum_{alpha |- n-2} ( sum_{mu = alpha + box} sqrt(d_mu m_mu) )^2

with diagrams of at most d rows, d_mu the symmetric-group irrep dimension
(hook-length formula) and m_mu the unitary-group irrep dimension (Weyl's
product formula).  The dense helpers build port states and qudit swaps
directly from basis-state digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod, sqrt

import numpy as np

EPS = float(np.finfo(float).eps)


def tolerance(dim: int) -> float:
    """Absolute tolerance for a value computed by dense eigendecompositions
    and products on a dim-dimensional space.  Their backward error grows like
    eps * dim * (norm of the operands, here at most 1); the factor 1000 covers
    the chain of such steps between the input and the printed value."""
    return 1000.0 * EPS * dim


def partitions(n: int, max_rows: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_rows rows, as weakly decreasing tuples."""

    def rec(left: int, largest: int, rows: int) -> list[tuple[int, ...]]:
        if left == 0:
            return [()]
        if rows == 0:
            return []
        return [
            (first,) + rest
            for first in range(min(left, largest), 0, -1)
            for rest in rec(left - first, first, rows - 1)
        ]

    return rec(n, n, max_rows)


def hook_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the symmetric-group irrep lam, by the hook-length formula."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


def weyl_dimension(lam: tuple[int, ...], d: int) -> int:
    """Dimension of the U(d) irrep lam, by Weyl's product over row pairs."""
    if len(lam) > d:
        return 0
    rows = list(lam) + [0] * (d - len(lam))
    value = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            value *= Fraction(rows[i] - rows[j] + j - i, j - i)
    if value.denominator != 1:
        raise ArithmeticError(f"Weyl dimension of {lam} for d={d} is not an integer")
    return int(value)


def add_box(alpha: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Diagrams with at most d rows obtained by adding one box to alpha."""
    out = []
    for i in range(min(len(alpha) + 1, d)):
        rows = list(alpha) + [0]
        rows[i] += 1
        if i == 0 or rows[i] <= rows[i - 1]:
            out.append(tuple(r for r in rows if r))
    return out


def pgm_fidelity(n: int, d: int) -> float:
    """Closed-form entanglement fidelity of PGM port-based teleportation
    with n - 1 ports of local dimension d."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    total = 0.0
    for alpha in partitions(n - 2, d):
        inner = sum(sqrt(hook_dimension(mu) * weyl_dimension(mu, d)) for mu in add_box(alpha, d))
        total += inner * inner
    return total / d ** (n + 1)


def digits(n: int, d: int) -> np.ndarray:
    """(d^n, n) table of base-d digits; qudit 1 is the most significant."""
    flat = np.arange(d**n)
    return np.stack([(flat // d ** (n - 1 - k)) % d for k in range(n)], axis=1)


def swap_index(n: int, d: int, i: int, j: int) -> np.ndarray:
    """Basis permutation of the swap of qudits i and j (1-based):
    (V A V^dagger) = A[idx][:, idx]."""
    dig = digits(n, d)
    dig[:, [i - 1, j - 1]] = dig[:, [j - 1, i - 1]]
    weights = d ** np.arange(n - 1, -1, -1)
    return dig @ weights


def port_state(n: int, d: int, i: int) -> np.ndarray:
    """rho_i: qudits i and n maximally entangled, all others maximally mixed."""
    dig = digits(n, d)
    paired = dig[:, i - 1] == dig[:, n - 1]
    rest = [k for k in range(n) if k not in (i - 1, n - 1)]
    same_rest = np.all(dig[:, None, rest] == dig[None, :, rest], axis=2)
    return (paired[:, None] & paired[None, :] & same_rest) / d ** (n - 1)

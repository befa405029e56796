import itertools
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtkit.partitions import (
    Partition,
    add_box,
    dim_specht,
    dim_weyl,
    enumerate_partitions,
    remove_box,
)


def brute_partitions(n, max_height):
    """Independent enumeration: weakly decreasing positive tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == max_height:
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], n, n)
    return out


def brute_standard_count(rows):
    """Count standard fillings by backtracking over placements."""
    n = sum(rows)
    heights = len(rows)

    def rec(fill):
        placed = sum(fill)
        if placed == n:
            return 1
        total = 0
        for r in range(heights):
            if fill[r] < rows[r] and (r == 0 or fill[r - 1] > fill[r]):
                nxt = list(fill)
                nxt[r] += 1
                total += rec(tuple(nxt))
        return total

    return rec((0,) * heights)


def brute_semistandard_count(rows, d):
    """Count semistandard fillings with entries in 1..d by brute force."""
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    count = 0
    for values in itertools.product(range(1, d + 1), repeat=len(cells)):
        grid = {}
        ok = True
        for (i, j), v in zip(cells, values):
            grid[(i, j)] = v
            if j > 0 and grid[(i, j - 1)] > v:
                ok = False
                break
            if i > 0 and grid[(i - 1, j)] >= v:
                ok = False
                break
        count += ok
    return count


def test_enumerate_examples():
    assert enumerate_partitions(0, 2) == [Partition()]
    assert enumerate_partitions(2, 2) == [Partition((2,)), Partition((1, 1))]
    assert enumerate_partitions(5, 2) == [
        Partition((5,)),
        Partition((4, 1)),
        Partition((3, 2)),
    ]


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("h", [1, 2, 3, 5])
def test_enumerate_matches_brute_force(n, h):
    got = [p.rows for p in enumerate_partitions(n, h)]
    expected = brute_partitions(n, h)
    assert got == sorted(expected, reverse=True)
    assert len(set(got)) == len(got)


def test_dim_specht_examples():
    assert dim_specht(Partition((1,))) == 1
    assert dim_specht(Partition((2, 1))) == 2
    assert dim_specht(Partition((2, 2, 1))) == 5


@pytest.mark.parametrize("rows", [(3,), (2, 1), (2, 2), (3, 1), (2, 2, 1), (3, 2, 1)])
def test_dim_specht_brute_force(rows):
    assert dim_specht(Partition(rows)) == brute_standard_count(rows)


def test_dim_weyl_examples():
    assert dim_weyl(Partition((2,)), 2) == 3
    for d in (1, 2, 3, 7):
        assert dim_weyl(Partition((1,)), d) == d
    assert dim_weyl(Partition((1, 1, 1)), 2) == 0


@pytest.mark.parametrize("rows", [(2,), (1, 1), (2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("d", [2, 3])
def test_dim_weyl_brute_force(rows, d):
    assert dim_weyl(Partition(rows), d) == brute_semistandard_count(rows, d)


@cache
def branching_standard_count(rows):
    """Standard tableaux by removing the box that holds the largest entry."""
    if not rows:
        return 1
    total = 0
    for i, r in enumerate(rows):
        if i + 1 == len(rows) or rows[i + 1] < r:
            smaller = rows[:i] + (r - 1,) + rows[i + 1 :]
            total += branching_standard_count(tuple(x for x in smaller if x))
    return total


@cache
def branching_semistandard_count(rows, d):
    """Semistandard tableaux with entries in 1..d by removing the boxes that
    hold d: what is left interlaces ``rows`` and has at most d - 1 rows."""
    if len(rows) > d:
        return 0
    if d == 1 or not rows:
        return 1
    padded = rows + (0,) * (d - len(rows))
    ranges = [range(padded[i + 1], padded[i] + 1) for i in range(d - 1)]
    return sum(
        branching_semistandard_count(tuple(x for x in mu if x), d - 1)
        for mu in itertools.product(*ranges)
    )


def test_dimensions_match_branching_counts_to_twenty_boxes():
    for n in range(21):
        for lam in enumerate_partitions(n, max(n, 1)):
            specht = dim_specht(lam)
            assert type(specht) is int and specht == branching_standard_count(lam.rows)
            for d in range(1, 5):
                weyl = dim_weyl(lam, d)
                assert type(weyl) is int and weyl == branching_semistandard_count(lam.rows, d)


def test_add_box_examples():
    ba = add_box(Partition((1,)), 2)
    assert [c.rows for c in ba.children] == [(2,), (1, 1)]
    assert ba.theta is None

    ba = add_box(Partition((2, 1)), 2)
    assert [c.rows for c in ba.children] == [(3, 1), (2, 2)]
    assert ba.theta == Partition((2, 1, 1))

    ba = add_box(Partition((2,)), 1)
    assert [c.rows for c in ba.children] == [(3,)]
    assert ba.theta == Partition((2, 1))


def test_remove_box_examples():
    assert remove_box(Partition((1,))) == (Partition(),)
    assert remove_box(Partition((2, 1))) == (Partition((1, 1)), Partition((2,)))
    assert remove_box(Partition((3, 3))) == (Partition((3, 2)),)


def test_theta_presence_rule():
    for n in range(0, 7):
        for d in (1, 2, 3):
            for alpha in enumerate_partitions(n, d):
                ba = add_box(alpha, d)
                assert (ba.theta is not None) == (alpha.height() == d)
                for child in ba.children:
                    assert child.n == alpha.n + 1 and child.height() <= d


def test_induced_dimension_identity():
    # (n-1) d_alpha = sum over all one-box additions of d_nu, exactly
    for n in range(2, 11):
        for d in range(1, 12):
            for alpha in enumerate_partitions(n - 2, d):
                ba = add_box(alpha, d)
                total = sum(dim_specht(c) for c in ba.children) + ba.theta_dim()
                assert (n - 1) * dim_specht(alpha) == total


def test_schur_weyl_dimension_count():
    for n in range(0, 9):
        for d in (2, 3):
            total = sum(
                dim_specht(lam) * dim_weyl(lam, d)
                for lam in enumerate_partitions(n, d)
            )
            assert total == d**n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(1, 6))
def test_add_remove_consistency(n, d):
    # nu is reachable by adding a box to alpha iff alpha is a removal of nu
    for alpha in enumerate_partitions(n, 12):
        grown = list(add_box(alpha, 12).children)
        for nu in grown:
            assert alpha in remove_box(nu)
        for nu in enumerate_partitions(n + 1, 12):
            if alpha in remove_box(nu):
                assert nu in grown


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=0, max_size=6))
def test_partition_validation(rows):
    rows = tuple(sorted(rows, reverse=True))
    p = Partition(rows)
    assert p.n == sum(rows)
    assert p.conjugate().conjugate() == p
    assert p.conjugate().n == p.n


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        enumerate_partitions(-1, 2)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)

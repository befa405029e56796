import itertools
import os
import subprocess
import sys
import tracemalloc
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from pbtkit import schur
from pbtkit.blockenc import encoding_spaces
from pbtkit.partitions import Partition, dim_specht, dim_weyl, enumerate_partitions
from pbtkit.schur import (
    build_schur,
    covariance_residual,
    partial_transpose_last,
    permutation_dense,
    permutation_operator,
    submatrix_U_alpha,
    submatrix_U_nu_alpha,
)
from pbtkit.symrep import compose, identity_perm, standard_tableaux, transposition, yor
from pbtkit.twisted import build_twisted

RNG = np.random.default_rng(11)


def random_perm(m):
    return tuple(RNG.permutation(m))


def matrix_units(m, d, lam):
    """Oracle: E_ST = (d_lam / m!) sum over all of S(m) of yor(lam, sigma)_ST V(sigma),
    shape (d_lam, d_lam, d^m, d^m)."""
    dim = d**m
    d_lam = dim_specht(lam)
    units = np.zeros((d_lam, d_lam, dim, dim))
    rows = np.arange(dim)
    for p in itertools.permutations(range(m)):
        src = permutation_operator(m, d, p).source_index()
        units[:, :, rows, src] += yor(lam, p).matrix[:, :, None]
    return units * (d_lam / factorial(m))


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_permutation_operator_examples():
    assert np.allclose(permutation_dense(3, 2, identity_perm(3)), np.eye(8))
    swap = permutation_dense(2, 2, (1, 0))
    expected = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.array_equal(swap.astype(int), expected)


def test_permutation_group_law():
    for m, d in [(3, 2), (4, 2), (3, 3)]:
        for _ in range(10):
            p, q = random_perm(m), random_perm(m)
            lhs = permutation_dense(m, d, p) @ permutation_dense(m, d, q)
            assert np.array_equal(lhs, permutation_dense(m, d, compose(p, q)))


def test_partial_transpose_examples():
    assert np.allclose(partial_transpose_last(np.eye(8), 3, 2), np.eye(8))
    phi = np.zeros(4)
    phi[[0, 3]] = 1 / np.sqrt(2)
    proj = np.outer(phi, phi)
    swap = permutation_dense(2, 2, (1, 0))
    assert np.allclose(partial_transpose_last(proj, 2, 2), swap / 2)
    arr = RNG.standard_normal((27, 27))
    double = partial_transpose_last(partial_transpose_last(arr, 3, 3), 3, 3)
    assert np.array_equal(double, arr)


def test_build_schur_m1_identity():
    t = build_schur(1, 3)
    assert np.allclose(t.matrix, np.eye(3))
    assert [(lam.rows, r) for lam, r, _ in t.index] == [((1,), 1), ((1,), 2), ((1,), 3)]


def test_build_schur_m2_singlet():
    t = build_schur(2, 2)
    lam_sizes = {}
    for lam, r, _ in t.index:
        lam_sizes[lam.rows] = lam_sizes.get(lam.rows, 0) + 1
    assert lam_sizes == {(2,): 3, (1, 1): 1}
    singlet = t.row(Partition((1, 1)), 1, standard_tableaux(Partition((1, 1)))[0])
    expected = np.zeros(4)
    expected[1], expected[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    # fixed up to the multiplicity-basis sign convention
    assert np.allclose(singlet.real, expected) or np.allclose(singlet.real, -expected)


def test_build_schur_m3_block_sizes():
    t = build_schur(3, 2)
    sizes = {}
    for lam, r, _ in t.index:
        sizes.setdefault(lam.rows, set()).add(r)
    assert {k: len(v) for k, v in sizes.items()} == {(3,): 4, (2, 1): 2}
    assert dim_specht(Partition((2, 1))) == 2
    assert t.matrix.shape == (8, 8)


@pytest.mark.parametrize(
    "m,d,seed",
    [
        pytest.param(m, d, 0, id=f"{m}-{d}")
        for m, d in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (2, 3), (3, 3), (4, 3)]
    ]
    # weight spaces holding several copies, where eigh picks the multiplicity basis
    + [(m, d, seed) for m, d in [(5, 3), (6, 3), (4, 4)] for seed in (0, 3)],
)
def test_covariance(m, d, seed):
    t = build_schur(m, d, seed)
    worst = 0.0
    for k in range(1, m):
        worst = max(worst, covariance_residual(t, transposition(k - 1, k, m)))
    for _ in range(20):
        worst = max(worst, covariance_residual(t, random_perm(m)))
    assert worst < 1e-10


@pytest.mark.parametrize("m,d", [(m, d) for d in (2, 3) for m in range(2, 6)])
def test_rows_match_symmetrizer_oracle(m, d):
    # sum_r u_{r,S}^+ u_{r,T} is the matrix unit E_ST whatever the multiplicity gauge
    for seed in (0, 3):
        t = build_schur(m, d, gauge_seed=seed)
        for lam in enumerate_partitions(m, d):
            rows = np.stack([t.block_rows(lam, r) for r in range(1, dim_weyl(lam, d) + 1)])
            units = np.einsum("rsi,rtj->stij", rows.conj(), rows)
            assert np.abs(units - matrix_units(m, d, lam)).max() < 1e-12


@pytest.mark.parametrize("m,d", [(6, 2), (9, 2), (4, 3)])
def test_rows_are_jucys_murphy_eigenvectors(m, d):
    t = build_schur(m, d)
    contents = np.array([tab.contents() for _, _, tab in t.index])
    for k in range(1, m):
        # X_k = sum_{j<k} V((j k)) applied to every row
        moved = sum(
            t.matrix[:, permutation_operator(m, d, transposition(j, k, m)).source_index()]
            for j in range(k)
        )
        assert np.abs(moved - contents[:, k, None] * t.matrix).max() < 1e-12


def test_covariance_beyond_group_enumeration():
    # S(9) has 362880 elements; the build never visits them
    m, d = 9, 2
    t = build_schur(m, d)
    perms = [transposition(k - 1, k, m) for k in range(1, m)]
    perms += [random_perm(m) for _ in range(5)]
    assert max(covariance_residual(t, p) for p in perms) <= 1e-12


def test_unitarity():
    for m, d in [(4, 2), (3, 3)]:
        t = build_schur(m, d)
        dim = d**m
        assert np.abs(t.matrix @ t.matrix.conj().T - np.eye(dim)).max() < 1e-10


def test_schur_row_lookup():
    t = build_schur(3, 2)
    for lam, r, path in t.index:
        row = t.row(lam, r, path)
        assert abs(np.vdot(row, row) - 1.0) < 1e-12
    # distinct labels orthogonal
    r0 = t.row(*t.index[0])
    r5 = t.row(*t.index[5])
    assert abs(np.vdot(r0, r5)) < 1e-12


def test_unitary_group_covariance_structure():
    # conjugating a tensor-power unitary is block diagonal with each block a
    # matrix on the multiplicity space tensored with the irrep identity
    for m, d in [(3, 2), (2, 3)]:
        t = build_schur(m, d)
        for _ in range(10):
            u = random_unitary(d)
            big = u
            for _ in range(m - 1):
                big = np.kron(big, u)
            conj = t.matrix @ big @ t.matrix.conj().T
            pos = 0
            for lam in enumerate_partitions(m, d):
                m_lam, d_lam = dim_weyl(lam, d), dim_specht(lam)
                size = m_lam * d_lam
                block = conj[pos : pos + size, pos : pos + size]
                tensor = block.reshape(m_lam, d_lam, m_lam, d_lam)
                q = np.einsum("ajbj->ab", tensor) / d_lam
                rebuilt = np.einsum("ab,jk->ajbk", q, np.eye(d_lam)).reshape(size, size)
                assert np.abs(block - rebuilt).max() < 1e-9
                other = conj[pos : pos + size, pos + size :]
                if other.size:
                    assert np.abs(other).max() < 1e-9
                pos += size


def test_submatrix_shapes_and_orthogonality():
    # fixed-copy row selections at n = 3, d = 2
    t = build_schur(2, 2)
    alpha = Partition((1,))
    u_a = submatrix_U_alpha(t, alpha)
    u_two = submatrix_U_nu_alpha(t, Partition((2,)), alpha)
    u_one = submatrix_U_nu_alpha(t, Partition((1, 1)), alpha)
    assert u_a.shape == (2, 4)
    assert u_two.shape == (1, 4) and u_one.shape == (1, 4)
    assert np.allclose(u_two @ u_two.conj().T, np.eye(1), atol=1e-12)
    assert np.allclose(u_one @ u_one.conj().T, np.eye(1), atol=1e-12)
    assert np.abs(u_two @ u_one.conj().T).max() < 1e-12


def test_submatrix_orthogonality_larger():
    t = build_schur(4, 2)
    alpha = Partition((2, 1))
    children = [Partition((3, 1)), Partition((2, 2))]
    mats = [submatrix_U_nu_alpha(t, nu, alpha) for nu in children]
    for mat in mats:
        assert np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max() < 1e-10
    assert np.abs(mats[0] @ mats[1].conj().T).max() < 1e-10
    u_a = submatrix_U_alpha(t, alpha)
    assert u_a.shape[0] == sum(dim_specht(nu) for nu in children)


@pytest.mark.parametrize("m,d", [(6, 3), (8, 2)])
def test_cold_build_peak_stays_below_four_dense_matrices(m, d):
    # the multiplicity basis comes from the eigenspace search itself, with no
    # d^m x d^m projector beside the transform being assembled
    schur._perm_source_index.cache_clear()
    schur._digit_table.cache_clear()
    tracemalloc.start()
    try:
        build_schur.__wrapped__(m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * d ** (2 * m)


def test_export_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(schur.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from pbtkit.cli import main; "
        "sys.exit(main(sys.argv[2:]))"
    )
    files = []
    for threads in ("1", "2"):
        path = tmp_path / f"schur{threads}.mat"
        subprocess.run(
            [sys.executable, "-c", code, src, "export", "schur", "--n", "6", "--d", "3", str(path)],
            check=True,
            capture_output=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        files.append((path.read_bytes(), Path(str(path) + ".json").read_bytes()))
    assert files[0] == files[1]


def test_dense_guard():
    with pytest.raises(ValueError):
        build_schur(25, 2)


def test_gauge_seed_changes_basis_not_span():
    t0 = build_schur(3, 2, gauge_seed=0)
    t1 = build_schur(3, 2, gauge_seed=1)
    assert not np.allclose(t0.matrix, t1.matrix)
    # both remain exact transforms
    assert covariance_residual(t1, transposition(0, 1, 3)) < 1e-10


@pytest.mark.parametrize("seed", [0, 3])
def test_schur_transform_is_real(seed):
    for d in (2, 3):
        for m in range(0, 7):
            assert build_schur(m, d, seed).matrix.dtype == np.float64


@pytest.mark.parametrize(
    "build,args,defaults",
    [
        (build_schur, (5, 2), {"gauge_seed": 0}),
        (build_twisted, (4, 2), {"gauge_seed": 0}),
        (encoding_spaces, (4, 2), {"mode": "tight", "gauge_seed": 0}),
    ],
)
def test_every_spelling_of_a_call_shares_one_cache_entry(build, args, defaults):
    first = build(*args)
    assert build(*args, *defaults.values()) is first
    assert build(*args, **defaults) is first

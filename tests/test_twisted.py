import numpy as np
import pytest

from pbtkit import cli, twisted
from pbtkit.partitions import Partition, add_box, dim_specht, dim_weyl, enumerate_partitions
from pbtkit.schur import partial_transpose_last, permutation_dense
from pbtkit.symrep import embed_perm, transposition
from pbtkit.twisted import (
    block_dimension,
    build_twisted,
    f_basis,
    factored_residual,
    gram_spectrum,
    lambda_eigenvalue,
    maximally_entangled,
    mf_generator,
    mf_pi,
    mf_rho,
    mf_sqrt_pi,
    psi_vectors,
    z_matrix,
    z_stacked,
)

RNG = np.random.default_rng(3)
ONE = Partition((1,))


def eta_dense(n, d):
    """sum_i of the partially transposed two-cycles (i n)."""
    out = np.zeros((d**n, d**n))
    for i in range(1, n):
        swap = permutation_dense(n, d, transposition(i - 1, n - 1, n))
        out += partial_transpose_last(swap, n, d)
    return out


def basis_vec(bits, d=2):
    idx = 0
    for b in bits:
        idx = idx * d + b
    out = np.zeros(d ** len(bits))
    out[idx] = 1.0
    return out


def test_psi_vectors_explicit_n3():
    psi = psi_vectors(3, 2, ONE, r=1)
    assert psi.shape == (8, 2)
    # spanning columns for the first-copy block: |000>+|101> and |000>+|011>
    col1 = basis_vec([0, 0, 0]) + basis_vec([1, 0, 1])
    col2 = basis_vec([0, 0, 0]) + basis_vec([0, 1, 1])
    got = np.abs(psi.real)
    assert np.allclose(sorted(psi.real.T.tolist()), sorted([col1.tolist(), col2.tolist()]))
    assert np.allclose(np.linalg.norm(psi, axis=0) ** 2, 2.0)


def test_psi_vectors_n2():
    psi = psi_vectors(2, 2, Partition(), r=1)
    assert psi.shape == (4, 1)
    assert np.allclose(psi[:, 0], np.sqrt(2) * maximally_entangled(2))


def test_psi_norms_general():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        for alpha in enumerate_partitions(n - 2, d):
            psi = psi_vectors(n, d, alpha)
            assert np.allclose(np.linalg.norm(psi, axis=0) ** 2, d, atol=1e-10)


def test_gram_examples():
    lam = gram_spectrum(3, 2, ONE)
    assert lam == {Partition((2,)): 3.0, Partition((1, 1)): 1.0}
    psi = psi_vectors(3, 2, ONE)
    assert np.allclose(psi.conj().T @ psi, [[2, 1], [1, 2]], atol=1e-12)

    lam2 = gram_spectrum(2, 2, Partition())
    assert lam2 == {Partition((1,)): 2.0}


def test_gram_trace_identity():
    # trace of the Gram matrix equals the total squared norm (n-1) d_alpha d
    for n, d in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]:
        for alpha in enumerate_partitions(n - 2, d):
            lam = gram_spectrum(n, d, alpha, check=False)
            total = sum(lambda_eigenvalue(n, d, alpha, nu) * dim_specht(nu) for nu in lam)
            assert abs(total - (n - 1) * dim_specht(alpha) * d) < 1e-9


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (4, 3), (5, 3)])
def test_gram_formula_vs_numeric(n, d):
    for alpha in enumerate_partitions(n - 2, d):
        gram_spectrum(n, d, alpha)  # raises on mismatch beyond 1e-8


def test_z_matrix_orthonormal_under_gram():
    for n, d in [(3, 2), (4, 2), (3, 3), (5, 2)]:
        for alpha in enumerate_partitions(n - 2, d):
            psi = psi_vectors(n, d, alpha)
            z = z_stacked(n, d, alpha)
            gram = psi.conj().T @ psi
            dim = block_dimension(alpha, d)
            assert np.abs(z.conj().T @ gram @ z - np.eye(dim)).max() < 1e-10


def test_z_matrix_identity_port_block():
    # the block for the fixed port n-1 uses the identity permutation inside
    n, d = 4, 2
    for alpha in enumerate_partitions(n - 2, d):
        blocks = z_matrix(n, d, alpha)
        col = 0
        for nu in add_box(alpha, d).children:
            dn = dim_specht(nu)
            c = np.sqrt(dn / lambda_eigenvalue(n, d, alpha, nu))
            c /= np.sqrt((n - 1) * dim_specht(alpha))
            sub = blocks[n - 2][:, col : col + dn]
            # identity irrep matrix: the alpha row-block of the identity
            expected = np.zeros_like(sub)
            start = 0
            from pbtkit.symrep import branching_slices

            for xi, a, b in branching_slices(nu):
                if xi == alpha:
                    expected[:, a:b] = np.eye(dim_specht(alpha))
            assert np.abs(sub - c * expected).max() < 1e-12
            col += dn


def test_f_basis_explicit_n3():
    blk = f_basis(3, 2, ONE, r=1)
    f1 = (2 * basis_vec([0, 0, 0]) + basis_vec([1, 0, 1]) + basis_vec([0, 1, 1])) / np.sqrt(6)
    assert np.allclose(np.abs(blk.f[:, 0].real), np.abs(f1), atol=1e-12)
    assert np.abs(blk.f.conj().T @ blk.f - np.eye(2)).max() < 1e-12
    assert blk.nu_index == (
        (Partition((2,)), ONE, 0),
        (Partition((1, 1)), ONE, 0),
    )


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3)])
def test_f_basis_covariance(n, d):
    # V(sigma) f = f . (direct sum of irrep matrices) for sigma in S(n-1)
    for alpha in enumerate_partitions(n - 2, d):
        blk = f_basis(n, d, alpha)
        for _ in range(5):
            sig = tuple(RNG.permutation(n - 1))
            v = permutation_dense(n, d, embed_perm(sig, n))
            rep = mf_generator(n, d, alpha, sig + (n - 1,), False)
            assert np.abs(v @ blk.f - blk.f @ rep).max() < 1e-9


def test_twisted_block_factored_matches_direct():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        for blk in build_twisted(n, d).blocks:
            dim = block_dimension(blk.alpha, d)
            assert np.abs(blk.f.T @ blk.f - np.eye(dim)).max() < 1e-10
            assert factored_residual(n, d, blk.alpha, blk.r) < 1e-10


@pytest.mark.parametrize(
    "n,d", [(n, 2) for n in range(2, 9)] + [(n, 3) for n in range(2, 7)] + [(5, 4)]
)
@pytest.mark.parametrize("seed", [0, 3])
def test_factored_form_matches_every_block(n, d, seed):
    # the (n-1)-qudit factored form is the oracle of the direct f = psi z
    for alpha in enumerate_partitions(n - 2, d):
        for r in range(1, dim_weyl(alpha, d) + 1):
            assert factored_residual(n, d, alpha, r, seed) < twisted.FACTORED_TOL


def test_blocks_mutually_orthogonal():
    tw = build_twisted(4, 2)
    mats = [b.f.conj().T for b in tw.blocks]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.abs(mats[i] @ mats[j].conj().T).max() < 1e-10


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
def test_hm_projector_is_sum_of_block_projectors(n, d):
    tw = build_twisted(n, d)
    total = sum(b.f @ b.f.conj().T for b in tw.blocks)
    assert np.abs(tw.hm_projector - total).max() < 1e-14


def test_hm_projector_rank_and_span():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        expected = sum(
            dim_weyl(alpha, d) * block_dimension(alpha, d)
            for alpha in enumerate_partitions(n - 2, d)
        )
        assert tw.hm_dimension() == expected
        rank = int(round(np.trace(tw.hm_projector).real))
        assert rank == expected
        # the support subspace is spanned by product states with one port
        # maximally entangled with the last qudit
        phi = maximally_entangled(d)
        cols = []
        for k in range(1, n):
            move = permutation_dense(n, d, embed_perm(transposition(k - 1, n - 2, n - 1), n))
            for idx in range(d ** (n - 2)):
                base = np.zeros(d ** (n - 2))
                base[idx] = 1.0
                cols.append(move @ np.kron(base, phi))
        span = np.stack(cols, axis=1)
        sv = np.linalg.svd(span, compute_uv=False)
        assert (sv > 1e-9).sum() == expected
        # projector reproduces every spanning vector
        assert np.abs(tw.hm_projector @ span - span).max() < 1e-9
        if n == 3 and d == 2:
            assert expected == 4


def test_mf_rho_examples_and_oracle():
    assert np.allclose(mf_rho(3, 2, ONE), np.diag([3.0, 1.0]))
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        eta = eta_dense(n, d)
        tw = build_twisted(n, d)
        total_trace = 0.0
        for blk in tw.blocks:
            u = blk.f.conj().T
            got = u @ eta @ u.conj().T
            want = mf_rho(n, d, blk.alpha)
            assert np.abs(got - want).max() < 1e-10
            total_trace += np.trace(want).real
        assert abs(total_trace - (n - 1) * d ** (n - 1)) < 1e-8


def test_mf_pi_examples():
    assert np.allclose(mf_pi(3, 2, ONE, 1), 0.5 * np.array([[1, -1], [-1, 1]]))
    assert np.allclose(mf_pi(3, 2, ONE, 2), 0.5 * np.array([[1, 1], [1, 1]]))
    assert np.allclose(mf_pi(3, 2, ONE, 1) + mf_pi(3, 2, ONE, 2), np.eye(2))


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)])
def test_mf_pi_pseudoprojector_and_completeness(n, d):
    for alpha in enumerate_partitions(n - 2, d):
        scale = 1.0 - add_box(alpha, d).theta_dim() / ((n - 1) * dim_specht(alpha))
        total = np.zeros((block_dimension(alpha, d),) * 2)
        for i in range(1, n):
            m = mf_pi(n, d, alpha, i)
            assert np.abs(m @ m - scale * m).max() < 1e-9
            evals = np.linalg.eigvalsh(m)
            assert all(min(abs(e), abs(e - scale)) < 1e-9 for e in evals)
            total += m
        assert np.abs(total - np.eye(total.shape[0])).max() < 1e-9


def test_library_and_suite_share_the_pseudo_tolerance(monkeypatch):
    # a residual between 1e-9 and 1e-8 fails the pseudo suite, and so it
    # fails the library's own check of every port block
    from pbtkit import verify

    residual = 5e-9
    monkeypatch.setattr(twisted, "pseudo_residual", lambda m, scale: residual)
    monkeypatch.setattr(verify, "pseudo_residual", lambda m, scale: residual)
    with pytest.raises(ArithmeticError, match="pseudoprojector identity violated"):
        mf_pi(3, 2, ONE, 1)
    passed, worst, _ = verify.SUITES["pseudo"](range(3, 5), (2,), 0)
    assert not passed and worst == residual


def test_mf_sqrt_pi_against_dense():
    from pbtkit.pbt import pgm_tilde_dense, principal_sqrt

    for n, d in [(3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        tilde = pgm_tilde_dense(n, d)
        for i in range(1, n):
            dense_root = principal_sqrt(tilde[i - 1])
            rebuilt = np.zeros(dense_root.shape, dtype=complex)
            for blk in tw.blocks:
                rebuilt += blk.f @ mf_sqrt_pi(n, d, blk.alpha, i) @ blk.f.conj().T
            assert np.abs(rebuilt - dense_root).max() < 1e-8
            # zero action on the complement
            comp = np.eye(d**n) - tw.hm_projector
            assert np.abs(rebuilt @ comp).max() < 1e-8


def test_mf_sqrt_pi_block_example():
    assert np.allclose(mf_sqrt_pi(3, 2, ONE, 1), 0.5 * np.array([[1, -1], [-1, 1]]))


def test_mf_pi_against_dense():
    from pbtkit.pbt import pgm_tilde_dense

    for n, d in [(3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        tilde = pgm_tilde_dense(n, d)
        for i in range(1, n):
            for blk in tw.blocks:
                u = blk.f.conj().T
                got = mf_pi(n, d, blk.alpha, i)
                assert np.abs(got - u @ tilde[i - 1] @ u.conj().T).max() < 1e-10


def test_mf_generator_fixing_last():
    n, d = 4, 2
    alpha = Partition((2,))
    ident = mf_generator(n, d, alpha, tuple(range(n)), transposed=False)
    assert np.allclose(ident, np.eye(block_dimension(alpha, d)))
    tw = build_twisted(n, d)
    for _ in range(5):
        sig = tuple(RNG.permutation(n - 1)) + (n - 1,)
        v = permutation_dense(n, d, sig)
        for blk in tw.blocks:
            got = mf_generator(n, d, blk.alpha, sig, transposed=False)
            u = blk.f.conj().T
            assert np.abs(got - u @ v @ u.conj().T).max() < 1e-10


def test_mf_generator_last_port_simplification():
    # the two-cycle (n-1, n) acts on the diagram-block rows only, with the
    # sqrt(lambda) weighted rank structure
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        for alpha in enumerate_partitions(n - 2, d):
            got = mf_generator(n, d, alpha, transposition(n - 2, n - 1, n), transposed=True)
            children = add_box(alpha, d).children
            dim = block_dimension(alpha, d)
            expected = np.zeros((dim, dim))
            from pbtkit.symrep import branching_slices

            offs = {}
            pos = 0
            for nu in children:
                offs[nu] = pos
                pos += dim_specht(nu)
            for om in children:
                for nu in children:
                    lam_o = lambda_eigenvalue(n, d, alpha, om)
                    lam_n = lambda_eigenvalue(n, d, alpha, nu)
                    c = (
                        np.sqrt(dim_specht(om) * dim_specht(nu) * lam_o * lam_n)
                        / ((n - 1) * dim_specht(alpha))
                    )
                    for xi_o, a, b in branching_slices(om):
                        for xi_n, cc, dd in branching_slices(nu):
                            if xi_o == alpha and xi_n == alpha:
                                expected[
                                    offs[om] + a : offs[om] + b,
                                    offs[nu] + cc : offs[nu] + dd,
                                ] = c * np.eye(b - a)
            assert np.abs(got - expected).max() < 1e-10


def test_mf_generator_transposed_oracle():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        for i in range(1, n):
            sig = transposition(i - 1, n - 1, n)
            op = partial_transpose_last(permutation_dense(n, d, sig), n, d)
            for blk in tw.blocks:
                got = mf_generator(n, d, blk.alpha, sig, transposed=True)
                u = blk.f.conj().T
                assert np.abs(got - u @ op @ u.conj().T).max() < 1e-10


def test_mf_generator_rank_one_example():
    got = mf_generator(3, 2, ONE, transposition(0, 2, 3), transposed=True)
    assert np.linalg.matrix_rank(got, tol=1e-10) == 1
    tw = build_twisted(3, 2)
    u = tw.blocks[0].f.conj().T
    op = partial_transpose_last(permutation_dense(3, 2, transposition(0, 2, 3)), 3, 2)
    assert abs(np.trace(got) - np.trace(u @ op @ u.conj().T).real) < 1e-10


def test_eta_symmetries():
    # the state sum commutes with permutations of the ports and with the
    # partially conjugated tensor-power unitaries
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        eta = eta_dense(n, d)
        for _ in range(5):
            sig = tuple(RNG.permutation(n - 1))
            v = permutation_dense(n, d, embed_perm(sig, n))
            assert np.abs(eta @ v - v @ eta).max() < 1e-10
        for _ in range(10):
            z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
            q = np.linalg.qr(z)[0]
            big = np.eye(1)
            for _ in range(n - 1):
                big = np.kron(big, q)
            big = np.kron(big, q.conj())
            assert np.abs(eta @ big - big @ eta).max() < 1e-10


def test_reconstruction_of_eta():
    for n, d in [(3, 2), (4, 2)]:
        tw = build_twisted(n, d)
        eta = eta_dense(n, d)
        rebuilt = np.zeros_like(eta, dtype=complex)
        for blk in tw.blocks:
            rebuilt += blk.f @ mf_rho(n, d, blk.alpha) @ blk.f.conj().T
        assert np.abs(rebuilt - eta).max() < 1e-8


def test_invalid_arguments():
    with pytest.raises(ValueError):
        psi_vectors(3, 2, Partition((2,)))  # wrong box count
    with pytest.raises(ValueError):
        mf_pi(3, 2, ONE, 3)  # port out of range
    with pytest.raises(ValueError):
        mf_generator(3, 2, ONE, (2, 1, 0), transposed=False)  # moves last qudit


def recording_tolerance(value, seen):
    """A tolerance that appends every residual compared with it to ``seen``:
    ``err > tol`` asks the tolerance first, as its type subclasses the
    residual's np.float64."""

    class Tol(np.float64):
        def __lt__(self, err):
            seen.append(float(err))
            return np.float64.__lt__(self, err)

    return Tol(value)


@pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
def test_build_twisted_checks_every_block(monkeypatch, n, d):
    copies = [dim_weyl(alpha, d) for alpha in enumerate_partitions(n - 2, d)]
    assert max(copies) > 1
    ortho = []
    monkeypatch.setattr(twisted, "ORTHO_TOL", recording_tolerance(1e-9, ortho))
    build_twisted.cache_clear()
    try:
        tw = build_twisted(n, d)
        assert len(tw.blocks) == len(ortho) == sum(copies)
        assert 0 < max(ortho) < 1e-9
        monkeypatch.setattr(twisted, "ORTHO_TOL", -1.0)
        build_twisted.cache_clear()
        with pytest.raises(ArithmeticError, match="not orthonormal"):
            build_twisted(n, d)
    finally:
        build_twisted.cache_clear()
        monkeypatch.undo()
    # the factored form is compared by the fbasis verify suite, not the build
    args = ["verify", "--suite", "fbasis", "--n", str(n), "--d", str(d)]
    assert cli.main(args) == 0
    monkeypatch.setattr(twisted, "FACTORED_TOL", -1.0)
    assert cli.main(args) == 1


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3)])
@pytest.mark.parametrize("seed", [0, 3])
def test_build_twisted_blocks_equal_f_basis(n, d, seed):
    # every block is f_basis of its own copy and gauge seed, to the bit
    tw = build_twisted(n, d, seed)
    assert any(blk.r > 1 for blk in tw.blocks)
    for blk in tw.blocks:
        one = f_basis(n, d, blk.alpha, blk.r, seed)
        assert np.array_equal(blk.f, one.f)
        assert blk.nu_index == one.nu_index


def test_build_twisted_forms_z_once_per_diagram(monkeypatch):
    # (6,3): 4 diagrams on 4 boxes, 39 multiplicity copies among them
    calls = {"z_stacked": 0, "_port_gathers": 0}
    for name in calls:
        inner = getattr(twisted, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(twisted, name, counted)
    build_twisted.cache_clear()
    try:
        tw = build_twisted(6, 3)
    finally:
        build_twisted.cache_clear()
    assert len(tw.blocks) == 39
    assert calls == {"z_stacked": 4, "_port_gathers": 1}


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (3, 3), (5, 3)])
@pytest.mark.parametrize("seed", [0, 3])
def test_twisted_blocks_are_real(n, d, seed):
    for blk in build_twisted(n, d, seed).blocks:
        assert blk.f.dtype == np.float64

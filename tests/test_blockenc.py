import numpy as np
import pytest

from pbtkit.partitions import Partition, add_box, enumerate_partitions
from pbtkit.blockenc import (
    amplification_weights,
    branch_mixers,
    build_PL_PR,
    coefficients,
    dense_O,
    encode_kraus,
    encode_O,
    encode_Phi,
    encoding_spaces,
    kraus_ledger,
    kraus_scale,
    naimark_Uc,
    unitary_complete,
    weight_range,
)
from pbtkit.amplify import plan
from pbtkit.registers import Branched, Composite, Gate, to_matrix
from pbtkit.twisted import build_twisted, lambda_eigenvalue, port_cycle

RNG = np.random.default_rng(13)
SQ2 = float(np.sqrt(2))


def test_unitary_complete_examples():
    assert np.allclose(unitary_complete(np.array([[1.0, 0.0]])), np.eye(2))
    u = unitary_complete(np.array([[1.0, 1.0]]) / np.sqrt(2))
    assert np.allclose(u[1], np.array([1.0, -1.0]) / np.sqrt(2))
    for k, m in [(1, 4), (2, 5), (3, 3)]:
        z = RNG.standard_normal((k, m)) + 1j * RNG.standard_normal((k, m))
        rows = np.linalg.qr(z.conj().T)[0].conj().T[:k]
        u = unitary_complete(rows)
        assert np.abs(u @ u.conj().T - np.eye(m)).max() < 1e-10
        assert np.abs(u[:k] - rows).max() < 1e-12


def test_unitary_complete_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        unitary_complete(np.array([[1.0, 1.0]]))


def test_coefficient_example_value():
    c, cp = coefficients(3, 2, Partition((1,)), Partition((2,)))
    assert abs(c - 0.5 / np.sqrt(3)) < 1e-14
    assert abs(cp - 1.0 / 6.0) < 1e-14


def test_coefficient_bounds_sweep():
    for n in range(3, 8):
        for d in (2, 3):
            for alpha in enumerate_partitions(n - 2, d):
                total_c, total_cp = 0.0, 0.0
                for nu in add_box(alpha, d).children:
                    c, cp = coefficients(n, d, alpha, nu)
                    assert 0.0 < c <= 1.0 and 0.0 < cp <= 1.0
                    total_c += c
                    total_cp += cp
                # x = x' = sqrt(d) satisfies both weight constraints
                assert total_c <= d + 1e-12
                assert total_cp / d <= 1.0 + 1e-12


@pytest.mark.parametrize("n,d", [(n, 2) for n in range(3, 9)] + [(n, 3) for n in range(3, 7)])
def test_amplification_weights_make_the_amplitude_exact(n, d):
    # x' at its low end; m is the plan at both low ends, and x is raised
    # until 1/(scale sqrt(n-1)) is sin(pi/2m)
    x, xp = amplification_weights(n, d)
    (x_low, x_high), (xp_low, xp_high) = weight_range(n, d, "C"), weight_range(n, d, "Cprime")
    assert x_low <= x <= x_high and xp == xp_low <= xp_high
    predicted = plan(kraus_scale(n, d, x_low, xp_low) * np.sqrt(n - 1), ports=n - 1).m
    scale = kraus_scale(n, d, x, xp)
    m = plan(scale * np.sqrt(n - 1), ports=n - 1).m
    assert m == predicted
    assert abs(1 / (scale * np.sqrt(n - 1)) - np.sin(np.pi / (2 * m))) <= 1e-15
    expected = {(3, 2): 21, (3, 3): 19, (4, 2): 57}
    if (n, d) in expected:
        assert m == expected[(n, d)]


def test_pl_pr_first_rows_and_unitarity():
    n, d = 4, 2
    cm = build_PL_PR(n, d, SQ2, "C")
    spaces = encoding_spaces(n, d)
    for alpha in spaces.parts2:
        children = add_box(alpha, d).children
        e_a = spaces.alpha_state(alpha)
        first = spaces.nu_state(children[0])
        row_anchor = (0 * spaces.n_nu + first) * spaces.n_al + e_a
        for nu in children:
            c, _ = coefficients(n, d, alpha, nu)
            col = (0 * spaces.n_nu + spaces.nu_state(nu)) * spaces.n_al + e_a
            assert abs(cm.p_left[row_anchor, col] - np.sqrt(c) / SQ2) < 1e-12
            assert abs(cm.p_right[row_anchor, col] - np.sqrt(c) / SQ2) < 1e-12
        marker10 = (1 * spaces.n_nu + 0) * spaces.n_al + e_a
        marker11 = (1 * spaces.n_nu + 1) * spaces.n_al + e_a
        assert abs(cm.p_left[row_anchor, marker10] - np.sqrt(cm.c_rem[alpha])) < 1e-12
        assert abs(cm.p_left[row_anchor, marker11]) < 1e-12
        assert abs(cm.p_right[row_anchor, marker10]) < 1e-12
        assert abs(cm.p_right[row_anchor, marker11] - np.sqrt(cm.c_rem[alpha])) < 1e-12
    assert np.abs(cm.p_two @ cm.p_two - np.eye(cm.p_two.shape[0])).max() < 1e-12


def test_pl_pr_rejects_small_x():
    with pytest.raises(ValueError):
        build_PL_PR(3, 2, 0.3, "C")


def test_marker_collisions_flagged_and_harmless():
    cm = build_PL_PR(3, 2, SQ2, "C")
    assert cm.collisions  # copy 2 of the first diagram exists at n=3, d=2
    enc = encode_O(3, 2, 1, 1, SQ2)
    assert enc.verify() < 1e-10


@pytest.mark.parametrize("mode", ["tight", "padded"])
@pytest.mark.parametrize("n,d,k,i", [(3, 2, 1, 1), (3, 2, 2, 1), (4, 2, 2, 1), (4, 2, 3, 2)])
def test_encode_O_block(mode, n, d, k, i):
    enc = encode_O(n, d, k, i, SQ2, mode)
    assert enc.verify() < 1e-8
    assert enc.scale == SQ2**2
    mat = to_matrix(enc.unitary, enc.layout)
    assert np.abs(mat @ mat.conj().T - np.eye(enc.layout.size)).max() < 1e-10


def test_encode_O_identity_port_case():
    # k = i = n-1 makes both permutations the identity
    n, d = 3, 2
    enc = encode_O(n, d, n - 1, n - 1, SQ2)
    spaces = encoding_spaces(n, d)
    tgt = dense_O(spaces, port_cycle(n - 1, n), port_cycle(n - 1, n), "C")
    alpha = Partition((1,))
    csum = sum(coefficients(n, d, alpha, nu)[0] for nu in add_box(alpha, d).children)
    assert abs(tgt[0, 0] - csum) < 1e-12
    assert enc.verify() < 1e-10


def test_encode_O_scale_bookkeeping():
    rows = kraus_ledger(3, 2, SQ2, SQ2, "padded")
    first = rows[0]
    assert first.scale == SQ2**2
    assert first.ancilla_qubits == 3  # log 4 + log 2 + log 1


def test_encode_Phi():
    for n, d in [(3, 2), (4, 2)]:
        enc = encode_Phi(n, d)
        assert enc.verify() < 1e-9
        assert enc.scale == pytest.approx(np.sqrt(d))
        assert len(enc.ancillas) == 1 and enc.layout.dim(enc.ancillas[0]) == 2
        # Phi Phi+ = d I on the label space
        tgt = enc.target
        gram = tgt @ tgt.conj().T
        nonzero = np.abs(np.diag(gram)) > 1e-9
        assert np.allclose(gram[np.ix_(nonzero, nonzero)], d * np.eye(nonzero.sum()))


def test_branch_mixer_normalization():
    n, d, x, xp = 3, 2, SQ2, SQ2
    u_l, u_r, c = branch_mixers(n, d, x, xp)
    expected = ((n - 1) ** 2.5 * d * x**4 + (n - 1) ** 2 * d * xp**2 + 1) ** -0.5
    assert abs(c - expected) < 1e-14
    for u in (u_l, u_r):
        assert np.abs(u @ u.T - np.eye(4)).max() < 1e-10
    assert u_l[0, 3] == 0.0 and u_r[0, 3] == 0.0
    assert u_r[0, 1] < 0 < u_l[0, 1]


@pytest.mark.parametrize("mode", ["tight", "padded"])
def test_encode_kraus_n3(mode):
    n, d = 3, 2
    tw = build_twisted(n, d)
    alpha_expected = 4 * 2 * 4 + 2**1.5 * 2 * 2 + 2**-0.5
    for i in (1, 2):
        enc = encode_kraus(n, d, tw, i, SQ2, SQ2, mode)
        assert enc.scale == pytest.approx(alpha_expected)
        assert enc.verify() < 1e-6


def tree_gates(op):
    if isinstance(op, Gate):
        yield op
    elif isinstance(op, Composite):
        for o in op.ops:
            yield from tree_gates(o)
    elif isinstance(op, Branched):
        for _, o in op.branches:
            yield from tree_gates(o)


@pytest.mark.parametrize("mode", ["tight", "padded"])
def test_kraus_encodings_share_each_distinct_gate(mode):
    tw = build_twisted(3, 2)
    gates = [g for i in (1, 2) for g in tree_gates(encode_kraus(3, 2, tw, i, mode=mode).unitary)]
    same = {}
    for gate in gates:
        same.setdefault((gate.names, gate.matrix.dtype.str, gate.matrix.tobytes()), set()).add(id(gate))
    # equal gates of all bodies and both ports are one object
    assert all(len(ids) == 1 for ids in same.values())
    assert len({id(g) for g in gates}) == len(same) < len(gates) // 8
    for gate in gates:
        assert not gate.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gate.matrix[0, 0] = 0


def test_padding_equivalence():
    n, d = 3, 2
    tw = build_twisted(n, d)
    tight = encode_kraus(n, d, tw, 1, SQ2, SQ2, "tight")
    padded = encode_kraus(n, d, tw, 1, SQ2, SQ2, "padded")
    assert np.abs(tight.post_selected_block() - padded.post_selected_block()).max() < 1e-10


def test_ledger_matches_reference_accounting():
    rows = kraus_ledger(3, 2, SQ2, SQ2, "padded")
    table = {r.name: (r.scale, r.ancilla_qubits) for r in rows}
    # at n=3, d=2, x=x'=sqrt(2): log n_rnu=2, log n_nu=1, log n_al=0,
    # log ceil(d)=1, log ceil(n-1)=1
    assert table["O(alpha,k,i)"] == (pytest.approx(2.0), 3)
    assert table["O_cen(i,kl,kr)"] == (pytest.approx(4.0), 6)
    assert table["Phi"] == (pytest.approx(np.sqrt(2)), 1)
    assert table["O_cen_tilde(i,kl,kr)"] == (pytest.approx(4.0), 6)
    assert table["summand(i,kl,kr)"] == (pytest.approx(8.0), 8)
    assert table["sqrtPi(i)"][1] == 12
    assert table["sqrtPi(i)"][0] == pytest.approx(4 * 2 * 4 + 2**1.5 * 2 * 2 + 2**-0.5)
    # the actual padded ancilla product carries exactly that many qubits
    spaces = encoding_spaces(3, 2, "padded")
    assert rows[-1].ancilla_dim == 2**12


def test_ledger_tight_reports_dims():
    rows = kraus_ledger(3, 2, SQ2, SQ2, "tight")
    assert all(r.ancilla_qubits is None for r in rows)
    spaces = encoding_spaces(3, 2, "tight")
    assert rows[0].ancilla_dim == spaces.anc_dim * spaces.n_al


def test_naimark_columns_and_identity_branches():
    n, d = 3, 2
    tw = build_twisted(n, d)
    encs = [encode_kraus(n, d, tw, i, SQ2, SQ2, "tight") for i in (1, 2)]
    nai = naimark_Uc(n, d, encs)
    layout = nai.layout
    from pbtkit.pbt import kraus_from_twisted

    kraus = [kraus_from_twisted(n, d, tw, i) for i in (1, 2)]
    # <e_i, 0_anc| V |0_I, 0_anc, h> ~ sqrt(Pi_i) / (scale sqrt(n-1))
    spaces = encoding_spaces(n, d, "tight")
    keep = np.flatnonzero(spaces.system_mask())
    cols = np.zeros((layout.size, len(keep)), dtype=complex)
    sys_names = ("r2", "al", "ka", "qm", "qn")
    sys_dims = tuple(layout.dim(nm) for nm in sys_names)
    for b, flat in enumerate(keep):
        pos = dict(zip(sys_names, np.unravel_index(flat, sys_dims)))
        vec = layout.basis_state(pos)
        cols[:, b] = vec.ravel()
    out = nai.v_op.apply(cols.reshape(layout.dims + (len(keep),)), layout)
    scale = nai.scale * np.sqrt(n - 1)
    for i, k in enumerate(kraus):
        sel: list = [0] * (len(layout.dims))
        sel[layout.axis("I")] = i
        block = np.zeros((len(keep), len(keep)), dtype=complex)
        sys_axes = [layout.axis(nm) for nm in sys_names]
        sub = out
        idx = [slice(None)] * out.ndim
        for ax, v in zip(range(len(layout.dims)), sel):
            if ax not in sys_axes:
                idx[ax] = v
        sub = out[tuple(idx)]
        flat = sub.reshape(-1, len(keep))
        block = flat[keep, :]
        assert np.abs(block - k / scale).max() < 1e-10

    # unitarity on random vectors
    vec = RNG.standard_normal(layout.dims) + 1j * RNG.standard_normal(layout.dims)
    vec /= np.linalg.norm(vec)
    moved = nai.uc_op.apply(vec, layout)
    assert abs(np.linalg.norm(moved) - 1.0) < 1e-10

    # the zero column of the preparer is the uniform superposition
    assert np.allclose(nai.u0[:, 0], np.full(n - 1, 1 / np.sqrt(n - 1)))


def test_batch_guard_raises_before_allocating():
    from pbtkit.blockenc import guard_batch
    from pbtkit.schur import DENSE_GUARD_BYTES, DenseTooLarge

    with pytest.raises(DenseTooLarge, match="1024.0 GiB"):
        guard_batch((2**20, 2**12), 16)  # 1 TiB: would fail if it were allocated
    guard_batch((DENSE_GUARD_BYTES // 16,), 1)  # exactly at the guard passes

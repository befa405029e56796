import numpy as np
import pytest

from pbtkit.amplify import amplified_V, end_to_end, plan
from pbtkit.blockenc import unitary_complete
from pbtkit.pbt import principal_sqrt
from pbtkit.registers import Composite, Gate, Layout, Register, to_matrix

RNG = np.random.default_rng(17)


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def unitary_dilation(target, scale):
    """One-ancilla-qubit unitary whose top-left block is target / scale: the
    isometry [B; sqrt(I - B^+ B)] completed to a unitary."""
    b = np.asarray(target, dtype=complex) / scale
    cols = np.vstack([b, principal_sqrt(np.eye(len(b)) - b.conj().T @ b)])
    return unitary_complete(cols.conj().T).conj().T


def one_qubit_setup(target, scale):
    u = unitary_dilation(target, scale)
    lay = Layout([Register("anc", 2), Register("sys", 2)])
    v = Gate(("anc", "sys"), u)
    mask = np.zeros(4, bool)
    mask[:2] = True  # anc = 0
    return lay, v, mask


def test_plan_examples():
    assert plan(2.0).m == 3
    assert plan(1.0).m == 1
    p = plan(2.0, ports=4)
    assert abs(np.sin(np.pi / (2 * p.m)) * p.inflated_scale * 2 - 1.0) < 1e-12


def test_plan_minimality_and_oddness():
    for scale in (1.5, 3.0, 10.0, 62.25):
        p = plan(scale)
        assert p.m % 2 == 1
        assert np.sin(np.pi / (2 * p.m)) <= 1.0 / scale + 1e-9
        if p.m > 2:
            assert np.sin(np.pi / (2 * (p.m - 2))) > 1.0 / scale


def test_plan_phase_schedule():
    p = plan(10.0)
    assert p.phases[0] == pytest.approx((1 - p.m) * np.pi / 2)
    assert all(phi == pytest.approx(np.pi / 2) for phi in p.phases[1:])
    assert len(p.phases) == p.m


def test_plan_honest_scale_is_hundreds():
    n, d, x = 3, 2, np.sqrt(2)
    alpha = (n - 1) ** 2 * d * x**4 + (n - 1) ** 1.5 * d * x**2 + (n - 1) ** -0.5
    total = alpha * np.sqrt(n - 1)
    p = plan(total)
    assert p.m % 2 == 1
    assert abs(p.m - np.pi * total / 2) <= 2


def test_plan_rejects_subunit_scale():
    with pytest.raises(ValueError):
        plan(0.5)


def test_amplified_m1_is_v_on_start_columns():
    # m = 1 runs V's restricted chain alone, which is V on the start columns
    lay, v, mask = one_qubit_setup(random_unitary(2), 2.0)
    p = plan(1.0, 1, mask, mask)
    assert p.m == 1
    amplified = amplified_V(v, p, lay)
    assert amplified.steps == (amplified.support.chain,)
    start = np.eye(lay.size, dtype=complex)[:, mask].reshape(lay.dims + (-1,))
    assert np.array_equal(amplified.apply(start, lay), v.apply(start, lay))


def test_amplified_exact_case():
    # exact sub-normalization 1/2 and m = 3 recover the target exactly
    w = random_unitary(2)
    lay, v, mask = one_qubit_setup(w, 2.0)
    p = plan(2.0, 1, mask, mask)
    assert p.m == 3
    mat = to_matrix(amplified_V(v, p, lay), lay)
    assert np.abs(mat[np.ix_([0, 1], [0, 1])] - w).max() < 1e-12
    assert np.abs(mat @ mat.conj().T - np.eye(4)).max() < 1e-12


def test_amplified_error_growth_bounded():
    # a perturbed encoding stays within the 2 m epsilon budget
    w = random_unitary(2)
    for eps in (1e-3, 1e-2):
        pert = w + eps * RNG.standard_normal((2, 2))
        v_mat = unitary_dilation(pert / np.linalg.norm(pert, 2) * (1 + eps), 2.0)
        lay = Layout([Register("anc", 2), Register("sys", 2)])
        v = Gate(("anc", "sys"), v_mat)
        mask = np.zeros(4, bool)
        mask[:2] = True
        p = plan(2.0, 1, mask, mask)
        mat = to_matrix(amplified_V(v, p, lay), lay)
        block = mat[np.ix_([0, 1], [0, 1])]
        base = np.abs(2 * v_mat[:2, :2] / 2 - w / 2).max()  # encoding error / scale
        eps_in = np.linalg.norm(2 * v_mat[:2, :2] - w, 2) / 2
        assert np.linalg.norm(block - w, 2) <= 2 * p.m * eps_in + 1e-9


def test_phase_gadget_identity():
    # e^{i phi (2P-1)} equals the controlled-flip gadget's ancilla-zero block
    dim = 6
    diag = RNG.integers(0, 2, dim).astype(bool)
    proj = np.diag(diag.astype(float))
    for phi in (0.3, np.pi / 2, -1.2):
        direct = np.cos(phi) * np.eye(dim) + 1j * np.sin(phi) * (2 * proj - np.eye(dim))
        cnot = np.kron(proj, np.array([[0, 1], [1, 0]])) + np.kron(
            np.eye(dim) - proj, np.eye(2)
        )
        phase = np.kron(np.eye(dim), np.diag([np.exp(-1j * phi), np.exp(1j * phi)]))
        gadget = cnot @ phase @ cnot
        block = gadget.reshape(dim, 2, dim, 2)[:, 0, :, 0]
        assert np.abs(block - direct).max() < 1e-12


def test_amplified_unitarity_compressed():
    from pbtkit.simulate import build_pipeline

    # the product is defined on S, which spans the whole bare layout here:
    # its S columns are orthonormal and stay in S
    pipe = build_pipeline(3, 2, "compressed", with_bob=False, with_ref=False)
    layout, support = pipe.layout, pipe.v_amp.support
    assert support.names == layout.names
    basis = np.eye(layout.size)[:, support.index].reshape(layout.dims + (support.index.size,))
    mat = pipe.v_amp.apply(basis, layout).reshape(layout.size, -1)
    assert np.abs(mat.conj().T @ mat - np.eye(support.index.size)).max() < 1e-8
    assert not np.delete(mat, support.index, axis=0).any()


def test_end_to_end_compressed():
    res = end_to_end(3, 2, "compressed")
    assert res.m == 3
    assert res.w_residual <= res.epsilon + 1e-9
    assert res.amplified_residual <= res.amplified_bound
    assert res.discrepancy <= 2 * res.m * res.epsilon + 1e-9
    assert res.probability_error < 1e-10
    assert res.ancilla_purity > 1 - 1e-10
    assert res.ancilla_zero_weight > 1 - 1e-10


def test_end_to_end_honest(honest_end_to_end):
    # the default weights make the post-selected amplitude sin(pi/2m), so
    # the 21-phase run lands on the target up to rounding
    res = honest_end_to_end
    assert res.m == 21
    assert res.w_residual <= res.epsilon + 1e-9
    assert res.amplified_residual <= res.amplified_bound
    assert res.discrepancy <= 2 * res.m * res.epsilon + 1e-9
    assert res.amplified_residual < 1e-12
    assert res.discrepancy < 1e-12
    assert res.probability_error < 1e-12
    assert res.ancilla_purity > 1 - 1e-12
    assert res.ancilla_zero_weight > 1 - 1e-12


def test_end_to_end_builds_one_pipeline_and_amplifies_once(monkeypatch):
    import pbtkit.simulate as simulate
    from pbtkit.registers import Op

    calls = {"build_pipeline": 0, "v_amp.run": 0}
    build = simulate.build_pipeline

    class Counted(Op):
        def __init__(self, op):
            self.op = op
            self.support = op.support  # end_to_end reads its rows' digits

        def run(self, x):
            calls["v_amp.run"] += 1
            return self.op.run(x)

    def counted_build(*args, **kwargs):
        calls["build_pipeline"] += 1
        pipe = build(*args, **kwargs)
        pipe.v_amp = Counted(pipe.v_amp)
        return pipe

    monkeypatch.setattr(simulate, "build_pipeline", counted_build)
    end_to_end(3, 2, "compressed")
    assert calls == {"build_pipeline": 1, "v_amp.run": 1}


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
def test_end_to_end_residuals_match_system_column_batch(n, d):
    # oracle: the dilation and the amplified product applied to every physical
    # system column on the bare layout, against the dense dilation's columns
    from pbtkit.pbt import kraus_from_twisted
    from pbtkit.simulate import build_pipeline
    from pbtkit.twisted import build_twisted

    tw = build_twisted(n, d)
    kraus = [kraus_from_twisted(n, d, tw, i) for i in range(1, n)]
    pipe = build_pipeline(n, d, "compressed", with_bob=False, with_ref=False, tw=tw)
    layout = pipe.layout
    keep = np.flatnonzero(pipe.system_mask)
    sys_names = ("r2", "al", "ka", "qm", "qn")
    sys_dims = tuple(layout.dim(nm) for nm in sys_names)
    cols_in = np.zeros(layout.dims + (len(keep),), dtype=complex)
    w_cols = np.zeros(layout.dims + (len(keep),), dtype=complex)
    for row, flat in enumerate(keep):
        pos = dict(zip(sys_names, np.unravel_index(flat, sys_dims)))
        cols_in[tuple(pos.get(nm, 0) for nm in layout.names) + (row,)] = 1.0
        for i, k in enumerate(kraus):
            pos["I"] = i
            w_cols[tuple(pos.get(nm, 0) for nm in layout.names)] = k[row]
    end = pipe.plan.end_projector.reshape(layout.dims + (1,))

    def spectral(a):
        return np.linalg.svd(a.reshape(layout.size, -1), compute_uv=False)[0]

    sub = w_cols / (pipe.naimark.scale * np.sqrt(n - 1))
    w_res = spectral(sub - pipe.naimark.v_op.apply(cols_in, layout) * end)
    amp_res = spectral(w_cols - pipe.v_amp.apply(cols_in, layout) * end)

    res = end_to_end(n, d, "compressed")
    assert abs(res.w_residual - w_res) < 1e-12
    assert abs(res.amplified_residual - amp_res) < 1e-12
    if (n, d) == (4, 3):
        assert amp_res > 1e-3  # a residual the comparison can tell apart


@pytest.mark.parametrize("variant", ["compressed", "honest"])
def test_reduced_trace_distance_matches_dense_reduced_states(variant):
    # compressed: more kept amplitudes than ancilla columns (R-factor route);
    # honest: the other way round (kept x kept route)
    from pbtkit.amplify import _reduced_trace_distance
    from pbtkit.simulate import build_pipeline

    pipe = build_pipeline(3, 2, variant, with_bob=False, with_ref=False)
    layout = pipe.layout
    w, v = (
        RNG.standard_normal(layout.dims) + 1j * RNG.standard_normal(layout.dims)
        for _ in range(2)
    )
    kept = {"I", "r2", "al", "ka", "qm", "qn"}
    axes = [layout.axis(nm) for nm in layout.names if nm not in kept]
    rest = [layout.axis(nm) for nm in layout.names if nm in kept]

    def by_ancilla(state):
        moved = state.transpose(axes + rest)
        return moved.reshape(int(np.prod(moved.shape[: len(axes)])), -1)

    def reduced(state):
        mat = by_ancilla(state)
        return mat.T @ mat.conj()

    expected = np.abs(np.linalg.eigvalsh(reduced(w) - reduced(v))).sum()
    got = _reduced_trace_distance(by_ancilla(w).T, by_ancilla(v).T)
    assert abs(got - expected) < 1e-10 * expected


def oracle_ancilla_rows(pipe, state):
    """A whole-layout state as an (ancilla x everything else) matrix."""
    blk = pipe.layout.block(state, pipe.naimark.ancillas)
    return blk.transpose(1, 0, 2).reshape(blk.shape[1], -1)


def oracle_trace_distance(pipe, w, v):
    """The reduced states' trace distance, from whole-layout states."""
    x_w, x_v = (oracle_ancilla_rows(pipe, state).T for state in (w, v))
    k = x_w.shape[1]
    if x_w.shape[0] > 2 * k:
        r = np.linalg.qr(np.hstack([x_w, x_v]), mode="r")
        x_w, x_v = r[:, :k], r[:, k:]
    diff = x_w @ x_w.conj().T - x_v @ x_v.conj().T
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def oracle_cleanliness(pipe, state):
    """Ancilla purity and zero weight, from a whole-layout state."""
    mat = oracle_ancilla_rows(pipe, state)
    sv = np.linalg.svd(mat, compute_uv=False)
    probs = sv**2 / (sv**2).sum()
    return float((probs**2).sum()), float((np.abs(mat[0]) ** 2).sum() / (sv**2).sum())


@pytest.mark.parametrize("n,d,variant", [(3, 2, "compressed"), (4, 3, "compressed"), (3, 2, "honest")])
def test_end_to_end_state_checks_match_whole_layout_oracle(request, n, d, variant):
    # the reference and amplified states scattered to the whole layout, the
    # reference K_i on the physical system rows of outcome i at ancilla zero
    from pbtkit.blockenc import SYSTEM
    from pbtkit.pbt import kraus_from_twisted
    from pbtkit.simulate import build_pipeline, initial_rows
    from pbtkit.twisted import build_twisted, maximally_entangled

    tw = build_twisted(n, d)
    pipe = build_pipeline(n, d, variant, tw=tw)
    layout, support = pipe.layout, pipe.v_amp.support
    rows = initial_rows(pipe, maximally_entangled(d))
    psi0 = support.scatter(rows, layout)
    v_out = support.scatter(pipe.v_amp.run(rows), layout)
    anc_sys = pipe.naimark.ancillas + SYSTEM
    keep = np.flatnonzero(pipe.system_mask)
    start = layout.block(psi0, anc_sys)[0, keep]
    w_out = np.zeros_like(psi0)
    for i in range(1, n):
        layout.block(w_out, anc_sys)[i - 1, keep] = kraus_from_twisted(n, d, tw, i) @ start

    if variant == "honest":
        res = request.getfixturevalue("honest_end_to_end")
    else:
        res = end_to_end(n, d, variant)
    purity, zero_weight = oracle_cleanliness(pipe, v_out)
    assert abs(res.discrepancy - oracle_trace_distance(pipe, w_out, v_out)) < 1e-12
    assert abs(res.ancilla_purity - purity) < 1e-12
    assert abs(res.ancilla_zero_weight - zero_weight) < 1e-12


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3)])
def test_end_to_end_holds_no_whole_layout_state(monkeypatch, n, d):
    from pbtkit import registers, simulate

    def refuse(*args, **kwargs):
        raise AssertionError("a whole-layout state was formed")

    monkeypatch.setattr(registers.Support, "scatter", refuse)
    monkeypatch.setattr(registers.RestrictedProduct, "apply", refuse)
    monkeypatch.setattr(simulate, "initial_state", refuse)
    monkeypatch.setattr(registers.Composite, "apply", refuse)
    res = end_to_end(n, d, "compressed")
    assert res.amplified_residual <= res.amplified_bound


@pytest.mark.scale
def test_end_to_end_honest_42():
    # the one point where build_PL_PR clamps the C' remainder weight
    res = end_to_end(4, 2, "honest")
    assert res.w_residual <= res.epsilon + 1e-9
    assert res.amplified_residual <= res.amplified_bound
    assert res.discrepancy <= 2 * res.m * res.epsilon + 1e-9
    assert res.amplified_residual < 1e-12
    assert res.discrepancy < 1e-12
    assert res.probability_error < 1e-12
    assert res.ancilla_purity > 1 - 1e-12
    assert res.ancilla_zero_weight > 1 - 1e-12


def test_amplified_paths_never_build_the_dense_pgm(monkeypatch):
    # the amplified probabilities are checked against the exact 1/(n-1)
    from pbtkit import pbt, simulate

    run = simulate.run

    def refuse(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(pbt, "pgm_dense", refuse)
    # pgm_dense's own body, however a caller imported the name
    monkeypatch.setattr(pbt, "pgm_tilde_dense", refuse)
    monkeypatch.setattr(simulate, "run", refuse)
    assert end_to_end(3, 2, "compressed").probability_error < 1e-14
    report = run(simulate.ProtocolRun(4, 3, engine="amplified-V"))
    assert report.discrepancy < 1e-14

import json
import sys
from dataclasses import fields, replace
from math import prod

import numpy as np
import pytest

from pbtkit.pbt import (
    apply_channel_matrix,
    channel_apply,
    entanglement_fidelity,
    outcome_output,
    pgm_dense,
    pgm_fidelity,
    pgm_probabilities,
    principal_sqrt,
)
from pbtkit import cli, simulate
from pbtkit.registers import Layout, Register, Sparse, to_matrix
from pbtkit.schur import permutation_operator
from pbtkit.simulate import ProtocolReport, ProtocolRun, compressed_encodings, run, sample
from pbtkit.symrep import transposition
from pbtkit.twisted import build_twisted, maximally_entangled

RNG = np.random.default_rng(23)


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def test_single_port_run():
    eta = np.diag([1.0, 0.0]).astype(complex)
    report = run(ProtocolRun(2, 2, input_state=eta, engine="dense-W"))
    assert report.probabilities == [pytest.approx(1.0)]
    assert np.abs(report.outcome_states[0] - np.eye(2) / 2).max() < 1e-10
    assert report.fidelity == pytest.approx(0.5)


def test_entangled_mode_matches_entanglement_fidelity():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        report = run(ProtocolRun(n, d, engine="dense-W"))
        reference = entanglement_fidelity(n, d, pgm_dense(n, d))
        assert report.fidelity == pytest.approx(reference, abs=1e-10)
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)


def test_probabilities_uniform_for_entangled_input():
    # full permutation symmetry of the resource makes outcomes equiprobable
    report = run(ProtocolRun(4, 2, engine="dense-W"))
    assert np.allclose(report.probabilities, 1 / 3, atol=1e-10)


def test_run_channel_consistency():
    # the probability-weighted outcome states average to the channel output
    n, d = 3, 2
    povm = pgm_dense(n, d)
    eta = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    report = run(ProtocolRun(n, d, input_state=eta, engine="dense-W"))
    avg = sum(
        p * s for p, s in zip(report.probabilities, report.outcome_states)
    )
    assert np.abs(avg - channel_apply(n, d, povm, eta)).max() < 1e-9


def test_equivariance_of_branches():
    # conjugating the input commutes with every outcome branch
    n, d = 3, 2
    for _ in range(3):
        u = random_unitary(d)
        eta = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        rep_a = run(ProtocolRun(n, d, input_state=u @ eta @ u.conj().T, engine="dense-W"))
        rep_b = run(ProtocolRun(n, d, input_state=eta, engine="dense-W"))
        for sa, sb, pa, pb in zip(
            rep_a.outcome_states, rep_b.outcome_states, rep_a.probabilities, rep_b.probabilities
        ):
            assert pa == pytest.approx(pb, abs=1e-10)
            assert np.abs(sa - u @ sb @ u.conj().T).max() < 1e-9


def test_amplified_engine_matches_dense():
    spec = ProtocolRun(3, 2, engine="amplified-V", variant="compressed")
    rep = run(spec)
    dense = run(ProtocolRun(3, 2, engine="dense-W"))
    assert np.abs(np.array(rep.probabilities) - np.array(dense.probabilities)).max() < 1e-10
    assert rep.fidelity == pytest.approx(dense.fidelity, abs=1e-8)
    assert rep.ancilla_weight == pytest.approx(1.0, abs=1e-10)


def test_amplified_engine_pure_input():
    eta = np.diag([1.0, 0.0]).astype(complex)
    rep = run(ProtocolRun(3, 2, input_state=eta, engine="amplified-V", variant="compressed"))
    dense = run(ProtocolRun(3, 2, input_state=eta, engine="dense-W"))
    assert np.abs(np.array(rep.probabilities) - np.array(dense.probabilities)).max() < 1e-9
    for sa, sb in zip(rep.outcome_states, dense.outcome_states):
        assert np.abs(sa - sb).max() < 1e-8


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(ProtocolRun(3, 2, engine="dense-W"), 0)


def test_sample_determinism_and_statistics():
    spec = ProtocolRun(3, 2, engine="dense-W", seed=42)
    hist1 = sample(spec, 100000)
    hist2 = sample(spec, 100000)
    assert hist1["counts"] == hist2["counts"]
    shots = hist1["shots"]
    for count, p in zip(hist1["counts"], hist1["probabilities"]):
        sigma = np.sqrt(shots * p * (1 - p))
        assert abs(count - shots * p) <= 4 * sigma
    assert hist1["chi_square"] >= 0.0


def test_sample_different_seeds_differ():
    h1 = sample(ProtocolRun(3, 2, engine="dense-W", seed=1), 10000)
    h2 = sample(ProtocolRun(3, 2, engine="dense-W", seed=2), 10000)
    assert h1["counts"] != h2["counts"]


def test_report_schema():
    report = run(ProtocolRun(3, 2, engine="dense-W"))
    payload = json.loads(report.to_json())
    assert set(payload) == {"n", "d", "engine", "probabilities", "fidelity", "discrepancy"}
    assert payload["n"] == 3 and payload["engine"] == "dense-W"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        run(ProtocolRun(3, 2, engine="nonsense"))


def test_amplification_projectors_pin_ancillas_outcome_and_system():
    from pbtkit.simulate import build_pipeline

    pipe = build_pipeline(4, 3, "compressed")
    layout, nai = pipe.layout, pipe.naimark
    pos = dict(zip(layout.names, np.indices(layout.dims).reshape(len(layout.dims), -1)))
    sys_flat = np.ravel_multi_index(
        [pos[nm] for nm in nai.systems], [layout.dim(nm) for nm in nai.systems]
    )
    anc_zero = np.logical_and.reduce([pos[nm] == 0 for nm in nai.ancillas])
    physical = pipe.system_mask[sys_flat]
    assert physical.all()  # the compressed system is the physical qudits alone

    def over_layout(mask):
        # a mask over the dilation's registers, broadcast over (B..., R)
        rest = len(layout.dims) - len(nai.layout.dims)
        return np.broadcast_to(mask.reshape(nai.layout.dims + (1,) * rest), layout.dims).ravel()

    assert np.array_equal(over_layout(pipe.plan.end_projector), anc_zero)
    assert np.array_equal(over_layout(pipe.plan.start_projector), anc_zero & (pos["I"] == 0) & physical)


def test_layout_mask_restricts_the_system_to_its_mask():
    # an honest system holds pad states from honest (4,2) on, which the
    # start mask leaves out; here on a small layout against every index
    layout = Layout([Register(nm, dim) for nm, dim in (("I", 2), ("a", 2), ("s", 2), ("t", 3), ("B", 2))])
    sys_mask = RNG.random(6) < 0.5
    got = simulate._layout_mask(layout, ("I", "a"), ("s", "t"), sys_mask)
    pos = np.indices(layout.dims).reshape(len(layout.dims), -1)
    want = (pos[0] == 0) & (pos[1] == 0) & sys_mask[pos[2] * 3 + pos[3]]
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "variant,n,d", [("honest", 3, 2), ("compressed", 3, 2), ("compressed", 4, 3), ("compressed", 6, 2)]
)
def test_chain_read_residual_is_the_dense_residual(monkeypatch, variant, n, d):
    # the pipeline reads every encoding's block from one pass of V's
    # restricted chain; the dense verify pushes each through its own layout
    tw = build_twisted(n, d)
    name = "compressed_encodings" if variant == "compressed" else "encode_kraus"
    build = getattr(simulate, name)

    def residuals(factor):
        """(the pipeline's delta, the dense one) with port 1's target scaled."""
        made = []

        def kept(*args, **kwargs):
            out = build(*args, **kwargs)
            encs = out if isinstance(out, list) else [out]
            if not made:
                encs = [replace(encs[0], target=encs[0].target * factor)] + encs[1:]
            made.extend(encs)
            return encs if isinstance(out, list) else encs[0]

        monkeypatch.setattr(simulate, name, kept)
        pipe = simulate.build_pipeline(n, d, variant, tw=tw)
        return pipe.delta, max(enc.verify() for enc in made)

    chain, dense = residuals(1.0)
    assert abs(chain - dense) < 1e-14
    # a target off by 1e-6 grows both alike, so the chain read is a check
    grown_chain, grown_dense = residuals(1 + 1e-6)
    assert grown_dense > dense + 1e-7
    assert abs(grown_chain - grown_dense) < 1e-12


def test_amplified_run_keeps_no_whole_layout_state(monkeypatch):
    # past the pipeline, the run holds S rows only: at honest (3,2) 6,144
    # rows against 147,456 indices, each row the 8 amplitudes of (B1, B2, R)
    import tracemalloc

    pipe = simulate.build_pipeline(3, 2, "honest")
    monkeypatch.setattr(simulate, "build_pipeline", lambda *args, **kwargs: pipe)
    tracemalloc.start()
    try:
        report = run(ProtocolRun(3, 2, engine="amplified-V", variant="honest"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pipe.layout.size * 16 / 4
    assert report.ancilla_weight > 1 - 1e-9


def test_compressed_pipeline_builds_only_the_smaller_schur_transform(monkeypatch):
    # the twisted blocks need the (n-2)-qudit Schur transform and nothing
    # else needs one, so m = n-1 is never built
    from pbtkit import schur
    from pbtkit.simulate import build_pipeline

    built = []
    eigenspace = schur._jucys_murphy_eigenspace

    def recording(m, d, contents):
        built.append(m)
        return eigenspace(m, d, contents)

    for cached in (schur.build_schur, build_twisted):
        cached.cache_clear()
    monkeypatch.setattr(schur, "_jucys_murphy_eigenspace", recording)
    build_pipeline(6, 2, "compressed")
    assert set(built) == {4}


def dense_gate(enc):
    """The dilation of ``enc`` as a dense matrix on its own registers
    (danc, q), read through the ``to_matrix`` oracle."""
    return to_matrix(enc.unitary, Layout([Register(nm, enc.layout.dim(nm)) for nm in enc.unitary.names]))


# the ids name the register sizing, which for the dilations is the tight one:
# the n physical qudits, unpadded
TIGHT_POINTS = pytest.mark.parametrize(
    "n,d", [(3, 2), (5, 2), (4, 3)], ids=["3-2-tight", "5-2-tight", "4-3-tight"]
)


@TIGHT_POINTS
def test_compressed_gate_matches_dense_dilation(n, d):
    # [[B, C], [C, -B]] with B = sqrt(Pi_i / d) and C = sqrt(I - Pi_i / d)
    # from the dense measurement
    povm = pgm_dense(n, d)
    encs = compressed_encodings(n, d, build_twisted(n, d))
    for enc, pi in zip(encs, povm.operators):
        b = principal_sqrt(pi / d)
        c = principal_sqrt(np.eye(d**n) - pi / d)
        gate = dense_gate(enc)
        assert np.abs(gate - np.block([[b, c], [c, -b]])).max() < 1e-12
        assert np.abs(gate @ gate.conj().T - np.eye(2 * d**n)).max() < 1e-12


def test_compressed_encodings_hold_no_padded_gate():
    # each dilation's Csr holds [[B, C], [C, -B]] on (danc, q) entry for
    # entry: a row per state of the 2 d^n, no pad state and no stored zero
    n, d = 8, 2
    for enc in compressed_encodings(n, d, build_twisted(n, d)):
        csr = enc.unitary.matrix
        assert csr.indptr.size - 1 == 2 * d**n
        assert csr.data.size == np.count_nonzero(dense_gate(enc))


def test_compressed_encodings_run_no_spectral_decomposition(monkeypatch):
    n, d = 4, 3
    tw = build_twisted(n, d)
    norm = np.linalg.norm

    def refuse(*args, **kwargs):
        raise AssertionError("spectral decomposition called")

    def frobenius_only(x, ord=None, *args, **kwargs):
        if ord == 2:
            refuse()
        return norm(x, ord, *args, **kwargs)

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "norm", frobenius_only)
    assert len(compressed_encodings(n, d, tw)) == n - 1


@pytest.mark.parametrize("n,d", [(6, 2), (4, 3)])
def test_compressed_pipeline_runs_on_the_physical_qudits(monkeypatch, n, d):
    # each dilation acts on (danc, q), q the n physical qudits as one
    # register: no Schur-label register is sized, and S is the whole
    # (I, danc, q) space
    def refuse(*args, **kwargs):
        raise AssertionError("encoding spaces sized")

    tw = build_twisted(n, d)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pbtkit" and hasattr(mod, "encoding_spaces"):
            monkeypatch.setattr(mod, "encoding_spaces", refuse)
    assert len(compressed_encodings(n, d, tw)) == n - 1
    pipe = simulate.build_pipeline(n, d, "compressed", with_ref=False, tw=tw)
    support = pipe.v_amp.support
    assert pipe.naimark.layout.names == ("I", "danc", "q")
    assert support.index.size == prod(support.dims) == (n - 1) * 2 * d**n


@TIGHT_POINTS
def test_compressed_gates_are_port_swap_gathers_of_port_1(n, d):
    # only port 1's dilation is checked for unitarity; every other port's B and
    # C must be the exact gather of port 1's by the port swap V(1 i), and so
    # must its target, whose spectral norm every scale check reads off port 1
    encs = compressed_encodings(n, d, build_twisted(n, d))
    total = encs[0].system_dim()
    blocks = []
    for enc in encs:
        gate = dense_gate(enc)
        blocks.append((gate[:total, :total], gate[:total, total:]))
    b1, c1 = blocks[0]
    for i, (b, c) in enumerate(blocks[1:], start=2):
        s = permutation_operator(n, d, transposition(0, i - 1, n)).source_index()
        assert np.array_equal(b, b1[np.ix_(s, s)])
        assert np.array_equal(c, c1[np.ix_(s, s)])
        assert np.array_equal(encs[i - 1].target, encs[0].target[np.ix_(s, s)])
    assert all(enc.target_norm is encs[0].target_norm for enc in encs)
    assert encs[0].target_norm() == np.linalg.norm(encs[0].target, 2)


@pytest.mark.parametrize("n,d", [(4, 3), (6, 2)])
def test_compressed_gates_are_real(monkeypatch, n, d):
    # B and C are float64, so the gate's entries are too; as a complex gate it
    # gives the same residuals and the same report to the bit
    encs = compressed_encodings(n, d, build_twisted(n, d))
    assert all(enc.unitary.matrix.data.dtype == np.float64 for enc in encs)

    def complex_gates(*args, **kwargs):
        out = []
        for enc in compressed_encodings(*args, **kwargs):
            csr = enc.unitary.matrix
            gate = Sparse(enc.unitary.names, csr._replace(data=csr.data.astype(complex)))
            out.append(replace(enc, unitary=gate))
        return out

    spec = ProtocolRun(n, d, engine="amplified-V")
    real = run(spec)
    monkeypatch.setattr(simulate, "compressed_encodings", complex_gates)
    assert [enc.verify() for enc in encs] == [
        enc.verify() for enc in complex_gates(n, d, build_twisted(n, d))
    ]
    other = run(spec)
    for field in fields(ProtocolReport):
        got, want = getattr(real, field.name), getattr(other, field.name)
        assert np.array_equal(got, want), field.name


def _oracle_report(n, d, eta):
    """The dense-W report with every Pi_i from the brute-force ``pgm_dense``."""
    phi = maximally_entangled(d)
    ops = pgm_dense(n, d).operators
    outs = [outcome_output(n, d, op, i, eta) for i, op in enumerate(ops, start=1)]
    probs = [float(np.trace(out).real) for out in outs]
    if eta is None:
        fidelity = sum(float(np.real(phi.conj() @ out @ phi)) for out in outs)
    else:
        fidelity = sum(float(np.real(np.trace(eta @ out))) for out in outs)
    states = [out / max(p, 1e-30) for out, p in zip(outs, probs)]
    return ProtocolReport(n, d, "dense-W", probs, states, fidelity, 0.0)


def _mixed_input(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    eta = z @ z.conj().T
    return eta / np.trace(eta).real


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["entangled", "mixed1", "mixed2", "mixed3"])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (6, 2)])
def test_dense_engine_report_matches_the_dense_measurement(n, d, seed):
    eta = None if seed is None else _mixed_input(d, seed)
    report = run(ProtocolRun(n, d, input_state="entangled" if eta is None else eta))
    oracle = _oracle_report(n, d, eta)
    for field in fields(ProtocolReport):
        got, want = getattr(report, field.name), getattr(oracle, field.name)
        if isinstance(want, (str, int)):
            assert got == want
        else:
            assert np.shape(got) == np.shape(want)
            assert np.abs(np.asarray(got) - np.asarray(want)).max() < 1e-14, field.name


@pytest.fixture
def refuse_dense_builders(monkeypatch):
    """Empty the transform caches and make every builder behind the twisted
    transform, the Schur transform and the closed-form measurement raise."""
    from pbtkit import pbt, schur, twisted

    def refuse(*args, **kwargs):
        raise AssertionError("dense object built")

    build_twisted.cache_clear()
    schur.build_schur.cache_clear()
    for module, name in [
        (pbt, "pgm_dense"),
        (pbt, "pgm_tilde_dense"),
        (pbt, "pgm_function"),
        (twisted, "f_basis"),
        (schur, "_jucys_murphy_eigenspace"),
    ]:
        monkeypatch.setattr(module, name, refuse)


def test_dense_engine_never_builds_the_dense_measurement(refuse_dense_builders):
    report = run(ProtocolRun(5, 3, engine="dense-W"))
    assert report.fidelity == pytest.approx(pgm_fidelity(5, 3), abs=1e-12)
    report = run(ProtocolRun(5, 3, input_state=_mixed_input(3, 1), engine="dense-W"))
    assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-12)
    report = run(ProtocolRun(4, 2, input_state=_mixed_input(2, 1), engine="dense-W"))
    assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-12)


def _depolarized(n, d, eta):
    """The outcome state in closed form: F P + (1 - F)(I - P)/(d^2 - 1) on
    (receiver, reference) in the entangled mode, lam eta + (1 - lam) I/d with
    lam = (d^2 F - 1)/(d^2 - 1) for an input eta."""
    f = pgm_fidelity(n, d)
    if eta is None:
        phi = maximally_entangled(d)
        p = np.outer(phi, phi)
        return f * p + (1 - f) * (np.eye(d * d) - p) / (d * d - 1)
    lam = (d * d * f - 1) / (d * d - 1)
    return lam * eta + (1 - lam) * np.eye(d) / d


@pytest.mark.parametrize("seed", [None, 5], ids=["entangled", "mixed"])
@pytest.mark.parametrize(
    "n,d,variant",
    [
        (3, 2, "compressed"),
        (4, 2, "compressed"),
        (4, 3, "compressed"),
        (6, 2, "compressed"),
        (3, 2, "honest"),
    ],
)
def test_amplified_engine_matches_the_closed_form(n, d, variant, seed):
    eta = None if seed is None else _mixed_input(d, seed)
    mode = "entangled" if eta is None else eta
    report = run(ProtocolRun(n, d, input_state=mode, engine="amplified-V", variant=variant))
    want = _depolarized(n, d, eta)
    assert np.abs(np.array(report.probabilities) - pgm_probabilities(n)).max() < 1e-12
    for state in report.outcome_states:
        assert np.abs(state - want).max() < 1e-12
    fidelity = pgm_fidelity(n, d) if eta is None else np.trace(eta @ want).real
    assert report.fidelity == pytest.approx(fidelity, abs=1e-12)


def test_dense_engine_at_one_dimension(capsys):
    # d = 1: nothing to teleport, so every outcome leaves [[1]] and F = 1
    report = run(ProtocolRun(4, 1, input_state=[[1]]))
    assert report.probabilities == [1 / 3] * 3
    assert all(np.array_equal(state, [[1]]) for state in report.outcome_states)
    assert report.fidelity == 1.0
    assert cli.main(["simulate", "--n", "3", "--d", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["fidelity"] == 1.0


@pytest.mark.parametrize("n,d", [(5, 3), (8, 2)])
def test_dense_engine_matches_closed_forms(n, d):
    report = run(ProtocolRun(n, d, engine="dense-W"))
    assert report.fidelity == pytest.approx(pgm_fidelity(n, d), abs=1e-12)
    assert np.abs(np.array(report.probabilities) - pgm_probabilities(n)).max() < 1e-12


@pytest.mark.parametrize("n,d", [(13, 2), (60, 3)])
def test_dense_engine_runs_past_the_dense_guard(refuse_dense_builders, n, d):
    import tracemalloc

    tracemalloc.start()
    try:
        report = run(ProtocolRun(n, d, engine="dense-W"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert report.fidelity == pgm_fidelity(n, d)
    assert report.probabilities == pgm_probabilities(n).tolist()


@pytest.mark.parametrize("engine", ["dense-W", "amplified-V"])
@pytest.mark.parametrize(
    "eta,problem",
    [
        (np.diag([1.5, -0.5]), "positive semidefinite, has eigenvalue -0.5"),
        (np.array([[0.5, 0.3], [0.1, 0.5]]), "Hermitian"),
        (np.array([[0.5, 0.3j], [0.3j, 0.5]]), "Hermitian"),
        (np.eye(2) / 4, "unit trace"),
        (np.eye(3) / 3, "d x d"),
    ],
)
def test_invalid_input_state_rejected_before_building(engine, eta, problem, monkeypatch):
    import pbtkit.simulate as sim

    def refuse(*args, **kwargs):
        raise AssertionError("built before the input was checked")

    monkeypatch.setattr(sim, "pgm_fidelity", refuse)
    monkeypatch.setattr(sim, "build_pipeline", refuse)
    with pytest.raises(ValueError, match=problem):
        run(ProtocolRun(3, 2, input_state=eta, engine=engine))


def test_input_state_checks_allow_rounding():
    eta = np.array([[1.0 + 1e-10, 1e-11j], [-1e-11j, -1e-10]])
    report = run(ProtocolRun(3, 2, input_state=eta, engine="dense-W"))
    assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-9)

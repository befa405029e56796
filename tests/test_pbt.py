import numpy as np
import pytest

from pbtkit.partitions import Partition
from pbtkit.pbt import (
    Povm,
    apply_channel_matrix,
    channel_apply,
    entanglement_fidelity,
    kraus_from_twisted,
    outcome_output,
    pgm_dense,
    pgm_fidelity,
    pgm_function,
    pgm_functions,
    pgm_probabilities,
    pgm_tilde_dense,
    principal_sqrt,
    rho_i_dense,
    sqrt_tilde_norm,
)
from pbtkit.schur import permutation_dense
from pbtkit.symrep import embed_perm, transposition
from pbtkit.twisted import build_twisted, maximally_entangled

RNG = np.random.default_rng(5)


def random_state(d):
    z = RNG.standard_normal(d) + 1j * RNG.standard_normal(d)
    z /= np.linalg.norm(z)
    return np.outer(z, z.conj())


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def rho_i_tensor(n, d, i):
    """rho_i built directly as a tensor product, for cross-checking."""
    phi = maximally_entangled(d)
    pair = np.outer(phi, phi.conj())
    rest = np.eye(d ** (n - 2)) / d ** (n - 2)
    # pair currently sits on qudits (n-1, n); permute qudit n-1 into slot i
    move = permutation_dense(n, d, embed_perm(transposition(i - 1, n - 2, n - 1), n))
    return move @ np.kron(rest, pair) @ move.conj().T


def test_rho_i_examples():
    phi = maximally_entangled(2)
    assert np.allclose(rho_i_dense(2, 2, 1), np.outer(phi, phi.conj()))
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        for i in range(1, n):
            op = rho_i_dense(n, d, i)
            assert abs(np.trace(op).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(op).min() > -1e-12
            assert np.abs(op - rho_i_tensor(n, d, i)).max() < 1e-12


def test_pgm_n2_single_outcome():
    povm = pgm_dense(2, 2)
    assert len(povm.operators) == 1
    assert np.allclose(povm.operators[0], np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)])
def test_pgm_completeness_and_positivity(n, d):
    povm = pgm_dense(n, d)
    total = sum(povm.operators)
    assert np.abs(total - np.eye(d**n)).max() < 1e-9
    for op in povm.operators:
        assert np.linalg.eigvalsh(op).min() > -1e-10


def test_delta_is_complement_projector_share():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        tilde = pgm_tilde_dense(n, d)
        delta = (np.eye(d**n) - sum(tilde)) / (n - 1)
        comp = (np.eye(d**n) - tw.hm_projector) / (n - 1)
        assert np.abs(delta - comp).max() < 1e-9


def test_support_separation():
    for n, d in [(3, 2), (4, 2)]:
        tw = build_twisted(n, d)
        proj = tw.hm_projector
        comp = np.eye(d**n) - proj
        tilde = pgm_tilde_dense(n, d)
        for t in tilde:
            assert np.abs(comp @ t @ comp).max() < 1e-9
            assert np.abs(proj @ t @ proj - t).max() < 1e-9
        delta = (np.eye(d**n) - sum(tilde)) / (n - 1)
        assert np.abs(proj @ delta @ proj).max() < 1e-9


@pytest.mark.parametrize(
    "n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)]
)
def test_kraus_twisted_equals_dense(n, d):
    tw = build_twisted(n, d)
    povm = pgm_dense(n, d)
    for i in range(1, n):
        kt = kraus_from_twisted(n, d, tw, i)
        kd = principal_sqrt(povm.operators[i - 1])
        assert np.abs(kt - kd).max() < 1e-8
        assert np.abs(kt @ kt - povm.operators[i - 1]).max() < 1e-8


@pytest.mark.parametrize(
    "n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)]
)
def test_pgm_function_identity_map_is_dense_pi(n, d):
    tw = build_twisted(n, d)
    povm = pgm_dense(n, d)
    for i in range(1, n):
        pi = pgm_function(n, d, tw, i, lambda x: x)
        assert np.abs(pi - povm.operators[i - 1]).max() < 1e-12


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (5, 2), (6, 2), (2, 3), (4, 3)])
def test_pgm_functions_gathers_port_one_by_the_port_swap(n, d):
    tw = build_twisted(n, d)
    for g in (np.sqrt, lambda x: np.sqrt(1.0 - x / d)):
        ops = list(pgm_functions(n, d, tw, g))
        assert len(ops) == n - 1
        first = pgm_function(n, d, tw, 1, g)
        assert ops[0].tobytes() == first.tobytes()
        for i, op in enumerate(ops, start=1):
            # V(1 i) A V(1 i): exchange qudits 1 and i on the row and the column side
            axes = list(range(2 * n))
            axes[0], axes[i - 1] = axes[i - 1], axes[0]
            axes[n], axes[n + i - 1] = axes[n + i - 1], axes[n]
            swapped = first.reshape((d,) * (2 * n)).transpose(axes).reshape(d**n, d**n)
            assert np.array_equal(op, swapped)
            assert np.abs(op - pgm_function(n, d, tw, i, g)).max() < 1e-14


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (3, 3)])
def test_pgm_function_of_constant_one_is_identity(n, d):
    tw = build_twisted(n, d)
    for i in range(1, n):
        one = pgm_function(n, d, tw, i, lambda x: 1.0)
        assert np.abs(one - np.eye(d**n)).max() < 1e-12


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)])
def test_sqrt_tilde_norm_bound(n, d):
    for i in range(1, n):
        assert sqrt_tilde_norm(n, d, i) <= np.sqrt(d) + 1e-10


def resource_output(n, d, i, op, eta=None):
    """Receiver output for outcome i, Tr_sender[(Pi_i (x) I) state], from the
    whole resource-and-input state on (ports 1..n-1, input, receiver) plus a
    reference when ``eta`` is None: the receiver maximally entangled with
    port i, the other ports maximally mixed, and the input either ``eta`` or
    maximally entangled with the reference."""
    phi = maximally_entangled(d)
    pair = np.outer(phi, phi.conj())
    if eta is None:
        # (port, receiver, input, reference) reordered to (port, input, receiver, reference)
        block = np.kron(pair, pair).reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
        side = 2
    else:
        # (port, receiver, input) reordered to (port, input, receiver)
        block = np.kron(pair, eta).reshape((d,) * 6).transpose(0, 2, 1, 3, 5, 4)
        side = 1
    m = n + side
    size = d ** (side + 2)
    state = np.kron(np.eye(d ** (n - 2)) / d ** (n - 2), block.reshape(size, size))
    # the pair was built on port n-1; move it onto port i
    move = permutation_dense(m, d, embed_perm(transposition(i - 1, n - 2, n - 1), m))
    state = move @ state @ move.conj().T
    joint = np.kron(op, np.eye(d**side)) @ state
    return joint.reshape(d**n, d**side, d**n, d**side).trace(axis1=0, axis2=2)


def mixed_state(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_outcome_output_matches_resource_state_oracle(n, d):
    povm = pgm_dense(n, d)
    # the measurement operators are real; a complex Hermitian operator also
    # pins the transposes
    z = np.random.default_rng(n * d).standard_normal((2, d**n, d**n))
    generic = (z[0] + 1j * z[1] + z[0].T - 1j * z[1].T) / d**n
    for eta in [None] + [mixed_state(d, seed) for seed in (1, 2, 3)]:
        total = 0.0
        for i, op in enumerate(povm.operators, start=1):
            ref = resource_output(n, d, i, op, eta)
            assert np.abs(outcome_output(n, d, op, i, eta) - ref).max() < 1e-12
            total = total + ref
            ref = resource_output(n, d, i, generic, eta)
            assert np.abs(outcome_output(n, d, generic, i, eta) - ref).max() < 1e-12
        if eta is not None:
            assert np.abs(channel_apply(n, d, povm, eta) - total).max() < 1e-12


def test_channel_single_port():
    povm = pgm_dense(2, 2)
    for eta in [np.diag([1.0, 0.0]).astype(complex), random_state(2)]:
        out = channel_apply(2, 2, povm, eta)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-10


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_channel_trace_preserving_and_unital(n, d):
    povm = pgm_dense(n, d)
    for _ in range(3):
        eta = random_state(d)
        out = channel_apply(n, d, povm, eta)
        assert abs(np.trace(out).real - 1.0) < 1e-9
    out = channel_apply(n, d, povm, np.eye(d, dtype=complex) / d)
    assert np.abs(out - np.eye(d) / d).max() < 1e-9


@pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3)])
def test_channel_covariance(n, d):
    povm = pgm_dense(n, d)
    for _ in range(5):
        eta = random_state(d)
        u = random_unitary(d)
        lhs = channel_apply(n, d, povm, u @ eta @ u.conj().T)
        rhs = u @ channel_apply(n, d, povm, eta) @ u.conj().T
        assert np.abs(lhs - rhs).max() < 1e-9


def test_fidelity_examples_and_monotonicity():
    values = {}
    for n in range(2, 7):
        values[n] = entanglement_fidelity(n, 2, pgm_dense(n, 2))
    assert abs(values[2] - 0.25) < 1e-12
    for n in range(2, 6):
        assert values[n + 1] > values[n]
    assert values[6] > values[3]


def test_fidelity_two_forms_agree():
    # ancilla form: overlap of the Choi state with the maximally entangled state
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        povm = pgm_dense(n, d)
        chan = apply_channel_matrix(n, d, povm)
        choi = sum(chan[:, a * d + b].reshape(d, d)[a, b] for a in range(d) for b in range(d))
        ancilla_form = float(np.real(choi)) / d**2
        assert abs(ancilla_form - entanglement_fidelity(n, d, povm)) < 1e-10


@pytest.mark.parametrize("n,d", [(n, 2) for n in range(2, 9)] + [(n, 3) for n in range(2, 6)])
def test_closed_form_fidelity_equals_dense(n, d):
    assert abs(pgm_fidelity(n, d) - entanglement_fidelity(n, d, pgm_dense(n, d))) < 1e-12


def test_closed_form_fidelity_examples():
    for d in range(1, 6):
        assert pgm_fidelity(2, d) == pytest.approx(1 / d**2, abs=1e-15)
    assert pgm_fidelity(3, 2) == pytest.approx((1 + np.sqrt(3)) ** 2 / 16, abs=1e-15)
    # far past where the exact integers overflow a float product
    assert 0.99 < pgm_fidelity(1100, 2) < 1.0
    with pytest.raises(ValueError):
        pgm_fidelity(1, 2)


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (3, 3)])
def test_outcome_probabilities_exact_for_any_input(n, d):
    from pbtkit.simulate import ProtocolRun, run

    for _ in range(2):
        report = run(ProtocolRun(n, d, input_state=random_state(d), engine="dense-W"))
        assert np.abs(np.array(report.probabilities) - pgm_probabilities(n)).max() < 1e-14


def test_fidelity_from_twisted_kraus_matches_dense():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        tw = build_twisted(n, d)
        povm = pgm_dense(n, d)
        ops = tuple(
            kraus_from_twisted(n, d, tw, i) @ kraus_from_twisted(n, d, tw, i)
            for i in range(1, n)
        )
        alt = Povm(n, d, ops)
        alt.validate()
        f_alt = entanglement_fidelity(n, d, alt)
        f_ref = entanglement_fidelity(n, d, povm)
        assert abs(f_alt - f_ref) < 1e-8


def test_povm_validation_catches_bad_sets():
    povm = pgm_dense(3, 2)
    bad = Povm(3, 2, (povm.operators[0], povm.operators[0]))
    with pytest.raises(ArithmeticError):
        bad.validate()


def test_channel_matrix_trace_preserving():
    mat = apply_channel_matrix(3, 2, pgm_dense(3, 2))
    eta = random_state(2)
    # trace preservation as a matrix identity on vectorized inputs
    out = (mat @ eta.reshape(-1)).reshape(2, 2)
    assert abs(np.trace(out).real - 1.0) < 1e-9


def test_dense_builds_guarded_before_allocating():
    import tracemalloc

    from pbtkit.schur import DenseTooLarge

    tracemalloc.start()
    try:
        with pytest.raises(DenseTooLarge, match="3 dense 2\\^13 x 2\\^13 .* 3.0 GiB"):
            build_twisted(13, 2)
        with pytest.raises(DenseTooLarge, match="24 dense 2\\^12 x 2\\^12 .* 6.0 GiB"):
            pgm_dense(12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (3, 3), (4, 3)])
def test_pgm_function_is_real(n, d):
    tw = build_twisted(n, d)
    for g in (np.sqrt, lambda x: x, lambda x: np.sqrt(1.0 - x / d)):
        for i in range(1, n):
            assert pgm_function(n, d, tw, i, g).dtype == np.float64

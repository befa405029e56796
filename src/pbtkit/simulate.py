"""End-to-end teleportation runs.

The dense engine reads its report from the closed form: every outcome has
probability 1/(n-1) and acts on the input as a depolarizing map fixed by the
entanglement fidelity ``pbt.pgm_fidelity``, so it builds no d^n x d^n matrix
at any (n, d).  The dense measurement it stands for, ``pbt.pgm_dense`` read
through ``pbt.outcome_output``, stays only as its oracle.  The amplified engine
drives the full register pipeline: outcome-controlled Kraus encodings, the
outcome-superposition preparer and the oblivious amplification sequence,
applied to the physical initial state as a structured operator; its
probabilities are conditioned on the block-encoding ancillas returning to
zero, which is the event the amplification boosts to near certainty.

The amplified engine holds no array of the protocol layout's size.  Its
start and end masks are over the dilation's registers, the ones S runs on;
the state lives on the S rows of the amplified product's support from
``initial_rows`` to the receiver states, and each encoding's residual
is read from one pass of V's S x S chain over the start columns, through
the readout ``BlockEncoding.verify`` shares (``blockenc.chain_blocks``).  The
compressed dilations act on the n physical qudits as one register, so their S
is the whole (I, danc, q) space; the honest encodings act on Schur-label
registers, whose pad states the start mask leaves out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from math import prod

import numpy as np

from .amplify import AmplificationPlan, amplified_V, plan
from .blockenc import (
    BlockEncoding,
    NaimarkDilation,
    _layout_mask,
    chain_blocks,
    encode_kraus,
    label_rows,
    naimark_Uc,
)
from .pbt import pgm_fidelity, pgm_functions, pgm_probabilities
from .registers import Layout, Register, RestrictedProduct, Sparse, Support
from .schur import DENSE_GUARD_BYTES, DenseTooLarge
from .twisted import TwistedSchur, build_twisted, maximally_entangled

INPUT_TOL = 1e-9
DILATION_TOL = 1e-10  # port 1's compressed dilation off unitary


@dataclass(frozen=True)
class ProtocolRun:
    """One protocol configuration.

    ``input_state``: a d x d density matrix, or "entangled" for the
    maximally-entangled-with-reference figure-of-merit mode.  A matrix that
    is not d x d, is not Hermitian, has a trace off one or an eigenvalue
    below zero, each beyond ``INPUT_TOL``, raises ``ValueError`` before
    anything is built.
    ``engine``: "dense-W", the closed-form channel of the PGM measurement,
    which builds nothing dense and so runs at any (n, d), or "amplified-V",
    which accepts a ``variant`` of "honest" (the staged Kraus encodings at
    the weights of ``blockenc.amplification_weights``, whose scale the phase
    sequence removes exactly) or "compressed" (direct one-qubit dilations at
    scale sqrt(d), giving a small phase count).
    """

    n: int
    d: int
    input_state: np.ndarray | str = "entangled"
    engine: str = "dense-W"
    seed: int = 0
    variant: str = "compressed"


@dataclass(eq=False)
class ProtocolReport:
    n: int
    d: int
    engine: str
    probabilities: list[float]
    outcome_states: list[np.ndarray]
    fidelity: float
    discrepancy: float
    ancilla_weight: float = 1.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "engine": self.engine,
                "probabilities": self.probabilities,
                "fidelity": self.fidelity,
                "discrepancy": self.discrepancy,
            }
        )


def _input_state(spec: ProtocolRun) -> np.ndarray | None:
    """The checked input density matrix, or None in the entangled mode."""
    d = spec.d
    if isinstance(spec.input_state, str):
        if spec.input_state != "entangled":
            raise ValueError(f"unknown input mode {spec.input_state!r}")
        return None
    eta = np.asarray(spec.input_state, dtype=complex)
    if eta.shape != (d, d):
        raise ValueError("input state must be d x d")
    if np.abs(eta - eta.conj().T).max() > INPUT_TOL:
        raise ValueError("input state must be Hermitian")
    if abs(np.trace(eta).real - 1.0) > INPUT_TOL:
        raise ValueError("input state must have unit trace")
    low = np.linalg.eigvalsh(eta).min()
    if low < -INPUT_TOL:
        raise ValueError(f"input state must be positive semidefinite, has eigenvalue {low:.3g}")
    return eta


def _input_branches(spec: ProtocolRun) -> tuple[list[tuple[float, np.ndarray]], bool]:
    """Pure-state branches of the input, plus whether a reference is used."""
    eta = _input_state(spec)
    if eta is None:
        return [(1.0, maximally_entangled(spec.d))], True
    evals, evecs = np.linalg.eigh(eta)
    branches = [
        (float(w), evecs[:, j]) for j, w in enumerate(evals) if w > 1e-12
    ]
    return branches, False


def run(spec: ProtocolRun) -> ProtocolReport:
    """Execute the protocol and report per-outcome data and fidelity."""
    if spec.engine == "dense-W":
        return _run_dense(spec)
    if spec.engine == "amplified-V":
        return _run_amplified(spec)
    raise ValueError(f"unknown engine {spec.engine!r}")


def _run_dense(spec: ProtocolRun) -> ProtocolReport:
    """Each outcome, at probability 1/(n-1), acts as the depolarizing map
    X -> lam X + (1 - lam) I / dim X with lam = (d^2 F - 1)/(d^2 - 1) and
    F = ``pgm_fidelity``, because the measurement commutes with
    U^(x)(n-1) (x) conj(U) (Ishizaka & Hiroshima, arXiv:0807.4568).  X is the
    input, or |phi+><phi+| on (receiver, reference) in the entangled mode,
    where the state is F P + (1 - F)(I - P)/(d^2 - 1) and the fidelity is F;
    for an input the fidelity is tr(X state).  At d = 1, F = 1 and d^2 - 1 is
    taken as 1, so lam = 0 and the state is [[1]]."""
    n, d = spec.n, spec.d
    eta = _input_state(spec)
    fid = pgm_fidelity(n, d)
    phi = maximally_entangled(d)
    target = np.outer(phi, phi) if eta is None else eta
    lam = (d * d * fid - 1) / max(d * d - 1, 1)
    state = lam * target + (1 - lam) / len(target) * np.eye(len(target))
    return ProtocolReport(
        n=n,
        d=d,
        engine=spec.engine,
        probabilities=pgm_probabilities(n).tolist(),
        outcome_states=[state.copy() for _ in range(n - 1)],
        fidelity=fid if eta is None else float(np.vdot(eta, state).real),
        discrepancy=0.0,
    )


def guard_dilation(n: int, d: int) -> None:
    """Raise DenseTooLarge, before anything is built, when the n-1
    dilations of ``compressed_encodings`` would exceed the guard, each
    counted as its dense physical block, (2 d^n)^2 and complex, as
    ``schur.guard_dense`` counts: a bound on the entries it holds."""
    side = 2 * d**n
    need = 16 * (n - 1) * side**2
    if need > DENSE_GUARD_BYTES:
        raise DenseTooLarge(
            f"{n - 1} dilations of {side} x {side} physical blocks need "
            f"{need / 2**30:.1f} GiB, above the {DENSE_GUARD_BYTES / 2**30:.0f} GiB guard"
        )


def compressed_encodings(
    n: int, d: int, tw: TwistedSchur
) -> list[BlockEncoding]:
    """Exact one-qubit dilations [[B, C], [C, -B]] of the Kraus operators at
    scale sqrt(d), for short amplification schedules: B = sqrt(Pi_i / d) and
    C = sqrt(I - Pi_i / d) from the irrep blocks for port 1 and by the port
    swap for the others.  Each is a ``Sparse`` op on the layout (danc, q), q
    the n physical qudits as one register, that holds the nonzeros of the
    dense block.  B and C are commuting Hermitian functions of Pi_i, so
    the gate is unitary when B^2 + C^2 = I and BC = CB, which is checked on
    port 1's gate only: every other port's B and C are exact qudit
    transposes of port 1's, so would repeat it.  For the same reason every
    port's scale check reads port 1's target spectral norm."""
    encs = []
    layout = Layout([Register("danc", 2), Register("q", d**n)])
    cs = pgm_functions(n, d, tw, lambda x: np.sqrt(1.0 - x / d))
    for i, (k, c) in enumerate(zip(pgm_functions(n, d, tw, np.sqrt), cs), start=1):
        b = k / np.sqrt(d)
        if i == 1:
            err = max(np.abs(b @ b + c @ c - np.eye(d**n)).max(), np.abs(b @ c - c @ b).max())
            if err > DILATION_TOL:
                raise ArithmeticError(f"dilation not unitary, residual {err:.2e}")
            target_norm = cache(partial(np.linalg.norm, k, 2))  # taken at the first check
        block = np.block([[b, c], [c, -b]])
        rows, cols = np.nonzero(block)
        vals = block[rows, cols]
        del block
        encs.append(
            BlockEncoding(
                layout=layout,
                ancillas=("danc",),
                systems=("q",),
                unitary=Sparse.from_entries(layout.names, 2 * d**n, rows, cols, vals),
                scale=float(np.sqrt(d)),
                target=k,
                name=f"dilated sqrtPi({i})",
                target_norm=target_norm,
            )
        )
    return encs


@dataclass(eq=False)
class Pipeline:
    """Everything needed to drive the amplified engine.  The protocol state
    is held as its S rows, (|S|, rest), S the support of ``v_amp`` and rest
    running over the registers after it (the receiver ports and the
    reference)."""

    n: int
    d: int
    variant: str
    naimark: NaimarkDilation
    layout: Layout  # protocol layout: naimark registers + receiver ports (+ ref)
    plan: AmplificationPlan
    v_amp: RestrictedProduct
    epsilon: float
    with_ref: bool
    system_mask: np.ndarray
    delta: float  # the largest encoding residual, read from V's restricted chain
    row_outcome: np.ndarray  # each S row's I digit at ancilla zero, -1 elsewhere
    row_system: np.ndarray  # each S row's flat index on the system registers


def build_pipeline(
    n: int,
    d: int,
    variant: str = "compressed",
    with_ref: bool = True,
    tw: TwistedSchur | None = None,
) -> Pipeline:
    """Assemble encodings, the dilation, the amplification plan and the
    protocol layout (the dilation's registers, the receiver ports B1..B(n-1)
    and, ``with_ref``, the reference R), at tight register sizes.  Raises
    DenseTooLarge before the twisted transform is built when the compressed
    variant's dilations, counted as their dense physical blocks, would exceed
    the dense guard (``guard_dilation``), and before the masks or the
    support are built when the protocol layout would, at one byte per
    amplitude."""
    if variant == "compressed":
        guard_dilation(n, d)
    tw = tw or build_twisted(n, d)
    if variant == "compressed":
        encs = compressed_encodings(n, d, tw)
    elif variant == "honest":
        encs = [encode_kraus(n, d, tw, i) for i in range(1, n)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    nai = naimark_Uc(n, d, encs)
    regs = list(nai.layout.registers) + [Register(f"B{j}", d) for j in range(1, n)]
    if with_ref:
        regs.append(Register("R", d))
    layout = Layout(regs)
    # no array here spans the protocol layout, but the S rows of a state,
    # (|S|, rest), grow with it; the guard counts one byte per amplitude
    if layout.size > DENSE_GUARD_BYTES:
        raise DenseTooLarge(
            f"the protocol layout's {layout.size} amplitudes count "
            f"{layout.size / 2**30:.1f} GiB at one byte each, above the "
            f"{DENSE_GUARD_BYTES / 2**30:.0f} GiB guard"
        )
    # the start and end masks over the dilation's registers, which S runs on
    system_mask = encs[0].system_mask()
    start = _layout_mask(nai.layout, ("I",) + nai.ancillas, nai.systems, system_mask)
    end = _layout_mask(nai.layout, nai.ancillas)
    pl = plan(
        nai.scale * np.sqrt(n - 1),
        ports=n - 1,
        start_projector=start,
        end_projector=end,
    )
    v_amp = amplified_V(nai.v_op, pl, layout)
    support = v_amp.support
    row_outcome, row_system = label_rows(support, layout, nai.ancillas, nai.systems, "I")
    delta = max(_chain_residuals(encs, nai, support, row_outcome, row_system))
    slack = 1.0 / (nai.scale * np.sqrt(n - 1)) - 1.0 / pl.inflated_total
    eps = float(np.sqrt(n - 1) * delta / nai.scale + max(slack, 0.0))
    return Pipeline(
        n=n,
        d=d,
        variant=variant,
        naimark=nai,
        layout=layout,
        plan=pl,
        v_amp=v_amp,
        epsilon=eps,
        with_ref=with_ref,
        system_mask=system_mask,
        delta=delta,
        row_outcome=row_outcome,
        row_system=row_system,
    )


def _chain_residuals(
    encs: list[BlockEncoding],
    nai: NaimarkDilation,
    support: Support,
    row_outcome: np.ndarray,
    row_system: np.ndarray,
) -> list[float]:
    """Each encoding's ``BlockEncoding.residual``, its post-selected block
    read from one run of V's restricted chain over the valid start columns
    (``blockenc.chain_blocks``).  V takes |0>_I |0>_anc |s> to
    sum_i u0[i, 0] |i> U_i |0>_anc |s>, so the ancilla-zero rows of outcome
    i, over u0[i, 0], are U_i's block."""
    valid = np.flatnonzero(encs[0].system_mask())
    blocks = chain_blocks(support, row_outcome, row_system, valid, (len(encs), encs[0].system_dim()))
    return [
        enc.residual(enc.scale * block[valid] / nai.u0[i, 0])
        for i, (enc, block) in enumerate(zip(encs, blocks))
    ]


def initial_rows(pipe: Pipeline, branch: np.ndarray) -> np.ndarray:
    """The S rows of |0>_I |0>_anc (x) Bell pairs between ports and receiver
    ports (x) the input branch on the last qudit (entangled with the
    reference when the branch is a two-qudit vector)."""
    n, d = pipe.n, pipe.d
    pairs = np.eye(d ** (n - 1)) / np.sqrt(d ** (n - 1))
    # physical (ports, input) against (receivers, reference)
    phys = np.einsum("ab,kr->akbr", pairs, branch.reshape(d, -1)).reshape(d**n, -1)
    cols = np.zeros((pipe.system_mask.size, phys.shape[1]), dtype=complex)
    cols[pipe.system_mask] = phys
    # the rows at I and the ancillas zero, whose system states hold every
    # physical one
    first = np.flatnonzero(pipe.row_outcome == 0)
    x = np.zeros((pipe.row_system.size, phys.shape[1]), dtype=complex)
    x[first] = cols[pipe.row_system[first]]
    return x


def initial_state(pipe: Pipeline, branch: np.ndarray) -> np.ndarray:
    """``initial_rows`` on the whole protocol layout, for perfbench and the tests."""
    return pipe.v_amp.support.scatter(initial_rows(pipe, branch), pipe.layout)


def _run_amplified(spec: ProtocolRun) -> ProtocolReport:
    n, d = spec.n, spec.d
    branches, with_ref = _input_branches(spec)
    pipe = build_pipeline(n, d, spec.variant, with_ref=with_ref)
    probs = np.zeros(n - 1)
    anc_weight = 0.0
    states = [np.zeros((d, d) if not with_ref else (d * d, d * d), dtype=complex) for _ in range(n - 1)]
    fidelity = 0.0
    phi = maximally_entangled(d)
    for weight, branch in branches:
        x = pipe.v_amp.run(initial_rows(pipe, branch))
        good = x[pipe.row_outcome >= 0]
        anc_weight += weight * float(np.vdot(good, good).real)
        for i in range(1, n):
            sel = x[pipe.row_outcome == i - 1]
            p_i = float(np.vdot(sel, sel).real)
            probs[i - 1] += weight * p_i
            rho = _receiver_state(pipe, sel, i)
            states[i - 1] += weight * rho
    probs_cond = probs / anc_weight
    for i in range(1, n):
        tr = np.trace(states[i - 1]).real
        if tr > 1e-30:
            states[i - 1] /= tr
        if with_ref:
            fidelity += probs_cond[i - 1] * float(
                np.real(phi.conj() @ states[i - 1] @ phi)
            )
        else:
            eta = np.asarray(spec.input_state)
            fidelity += probs_cond[i - 1] * float(
                np.real(np.trace(eta @ states[i - 1]))
            )
    discrepancy = float(np.abs(probs_cond - pgm_probabilities(n)).max())
    return ProtocolReport(
        n=n,
        d=d,
        engine=spec.engine,
        probabilities=[float(p) for p in probs_cond],
        outcome_states=states,
        fidelity=fidelity,
        discrepancy=discrepancy,
        ancilla_weight=float(anc_weight),
    )


def _receiver_state(pipe: Pipeline, sel: np.ndarray, i: int) -> np.ndarray:
    """Reduced state on (port B_i, reference if present), unnormalized, of
    the S rows ``sel``, whose rest axis runs over the registers after S."""
    layout = pipe.layout
    after = len(pipe.v_amp.support.names)
    names = layout.names[after:]
    keep = [1 + names.index(nm) for nm in [f"B{i}"] + (["R"] if pipe.with_ref else [])]
    moved = np.moveaxis(sel.reshape((len(sel),) + layout.dims[after:]), keep, range(len(keep)))
    kd = prod(moved.shape[: len(keep)])
    rest = moved.reshape(kd, -1)
    return rest @ rest.conj().T


def sample(spec: ProtocolRun, shots: int, report: ProtocolReport | None = None) -> dict:
    """Multinomial outcome histogram with a chi-square statistic against the
    engine's exact probabilities, taken from ``report`` when the protocol has
    already been run for ``spec``."""
    if shots < 1:
        raise ValueError("shots must be positive")
    if report is None:
        report = run(spec)
    p = np.array(report.probabilities)
    p = p / p.sum()
    rng = np.random.default_rng(spec.seed)
    counts = rng.multinomial(shots, p)
    expected = shots * p
    chi2 = float(((counts - expected) ** 2 / np.where(expected > 0, expected, 1)).sum())
    return {
        "counts": counts.tolist(),
        "expected": expected.tolist(),
        "chi_square": chi2,
        "shots": shots,
        "probabilities": report.probabilities,
    }

"""Oblivious amplitude amplification of the measurement dilation.

The dilation followed by ancilla post-selection implements the target
isometry only with amplitude 1/(scale * sqrt(n-1)).  When that amplitude
equals sin(pi/2m) for an odd m, the alternating phase sequence boosts it to
one exactly; the honest encoding's default weights
(``blockenc.amplification_weights``) are chosen to meet that equality, and
any other scale leaves the sequence off its target by the slack the
pipeline's epsilon records.  Reflections are evaluated through the
involution identity, so no matrix exponentials are ever formed.

The sequence only ever moves a start-subspace input through the dilation V,
its adjoint and two diagonal reflections, so the input never leaves S, the
support the start projector reaches under the nonzero pattern of V's factors
and their adjoints (``registers.Support``).  The amplified product is built
and run on S alone, at honest (3,2) 6,144 of the 147,456 indices of the
registers V touches: ``amplified_V`` returns a ``RestrictedProduct`` at every
m, whose ``run`` takes a state's S rows and whose ``apply`` rejects a
layout-shaped input with any amplitude off S.  ``end_to_end`` alone scatters
the output back to the whole layout, to compare it with the dense dilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, ceil, pi, sin

import numpy as np

from .registers import Layout, Op, RestrictedProduct, Support


@dataclass(frozen=True, eq=False)
class AmplificationPlan:
    """Phase schedule and projectors for one amplification run.

    The first phase is (1-m) pi/2 and the rest are pi/2; the inflated scale
    satisfies sin(pi/2m) * inflated_scale * sqrt(ports) = 1 exactly.
    """

    m: int
    phases: tuple[float, ...]
    inflated_scale: float
    ports: int
    start_projector: np.ndarray | None = None  # diagonal mask over the layout
    end_projector: np.ndarray | None = None

    @property
    def inflated_total(self) -> float:
        return 1.0 / sin(pi / (2 * self.m))


def plan(
    scale_total: float,
    ports: int = 1,
    start_projector: np.ndarray | None = None,
    end_projector: np.ndarray | None = None,
) -> AmplificationPlan:
    """Choose the smallest odd m with sin(pi/2m) <= 1/scale_total.

    ``inflated_scale`` is the per-port scale at which the amplitude is exactly
    sin(pi/2m); it only records that number, the encoding is not rescaled."""
    if scale_total < 1.0 - 1e-12:
        raise ValueError("total scale must be at least 1")
    scale_total = max(scale_total, 1.0)
    tol = 1.0 + 1e-9  # keep exact-boundary cases (e.g. total scale 2) at small m
    m = max(1, ceil(pi / (2 * asin(min(1.0, 1.0 / scale_total)))))
    if m % 2 == 0:
        m += 1
    while m > 2 and sin(pi / (2 * (m - 2))) <= tol / scale_total:
        m -= 2
    phases = ((1 - m) * pi / 2,) + (pi / 2,) * (m - 1)
    inflated = 1.0 / (np.sqrt(ports) * sin(pi / (2 * m)))
    return AmplificationPlan(
        m=m,
        phases=phases,
        inflated_scale=float(inflated),
        ports=ports,
        start_projector=start_projector,
        end_projector=end_projector,
    )


def amplified_V(v: Op, plan_: AmplificationPlan, layout: Layout) -> RestrictedProduct:
    """The phase-modulated product boosting the post-selected amplitude.

    v is applied m times in alternation with its adjoint and reflections
    about the start and end projectors; all interior phases are pi/2 and the
    leading end-reflection carries (1-m) pi/2 and the overall sign.  At
    m = 1 the product is v's chain alone.

    A start-subspace input only ever meets v, v^dagger and the diagonals, so
    it stays in S, the support the start projector reaches under the nonzero
    pattern of v's factors and their adjoints.  The product runs on S alone:
    the v chain is ``Support``'s S x S dense component blocks, the v^dagger
    chain their conjugate transposes in reverse, and each diagonal its S
    rows, all shared across phases.  Its ``run`` takes the S rows of a
    state; its ``apply`` takes layout-shaped states supported on S and
    raises ValueError on any other.
    """
    if plan_.start_projector is None or plan_.end_projector is None:
        raise ValueError("plan carries no projectors")
    start = np.asarray(plan_.start_projector, bool).reshape(layout.dims)
    end = np.asarray(plan_.end_projector, bool).reshape(layout.dims)
    m = plan_.m
    support = Support(v, layout, start)
    v_chain = support.chain
    if m == 1:
        return RestrictedProduct(support, (v_chain,))
    vdag_chain = tuple(f.adjoint() for f in reversed(v_chain))

    def reflection(mask: np.ndarray, phase: float, sign: float = 1.0) -> np.ndarray:
        inside = support.rows(mask, layout)
        return np.where(inside, sign * np.exp(1j * phase), sign * np.exp(-1j * phase))

    end_half = reflection(end, pi / 2)
    start_half = reflection(start, pi / 2)
    lead = reflection(end, plan_.phases[0], (-1.0) ** ((m - 1) // 2))
    steps = [v_chain, end_half, vdag_chain, start_half] * ((m - 1) // 2) + [v_chain, lead]
    return RestrictedProduct(support, tuple(steps))


# ---------------------------------------------------------------------------
# end-to-end verification against the dense dilation


@dataclass(eq=False)
class EndToEndResult:
    """Reference and amplified protocol states plus every residual of the
    dilation-and-amplification chain."""

    n: int
    d: int
    variant: str
    m: int
    epsilon: float
    w_residual: float  # || W/(scale sqrt(ports)) - P_end V P_start ||
    amplified_residual: float  # || W - P_end V~ P_start ||
    amplified_bound: float  # 2 m epsilon
    rho_g_reference: np.ndarray  # pure-state vector on the protocol layout
    rho_g_amplified: np.ndarray
    # trace distance on the outcome and physical registers, ancillas traced out
    discrepancy: float
    probability_error: float
    ancilla_purity: float
    ancilla_zero_weight: float


def end_to_end(n: int, d: int, variant: str = "compressed") -> EndToEndResult:
    """Drive the full pipeline at (n, d) and compare against the dense
    dilation: operator residuals, protocol-state trace distance and ancilla
    cleanliness; the outcome probabilities against their exact 1/(n-1)."""
    from .blockenc import SYSTEM
    from .pbt import kraus_from_twisted, pgm_probabilities
    from .simulate import build_pipeline, initial_state, outcome_probabilities
    from .twisted import build_twisted, maximally_entangled

    tw = build_twisted(n, d)
    kraus = [kraus_from_twisted(n, d, tw, i) for i in range(1, n)]

    pipe = build_pipeline(n, d, variant, tw=tw)
    layout = pipe.layout
    psi0 = initial_state(pipe, maximally_entangled(d))
    v_out = pipe.v_amp.apply(psi0, layout)

    # reference: the dense dilation applied to the same initial state, K_i on
    # the physical system rows of outcome i; the ancillas lead the run, so at
    # ancilla zero its flat rows are the system's
    anc_sys = pipe.naimark.ancillas + SYSTEM
    keep = np.flatnonzero(pipe.system_mask)
    start = layout.block(psi0, anc_sys)[0, keep]
    w_out = np.zeros_like(psi0)
    for i, k in enumerate(kraus):
        layout.block(w_out, anc_sys)[i, keep] = k @ start

    # psi0 is maximally entangled between the physical system and (B..., R),
    # so sqrt(d^n) times the (B..., R) axes of an output are the outputs on
    # the system basis columns: the operator residuals come from the same runs
    receivers = layout.names[layout.axis(SYSTEM[-1]) + 1 :]

    def columns(state: np.ndarray) -> np.ndarray:
        return layout.block(state, receivers)[:, :, 0] * np.sqrt(d**n)

    w_cols = columns(w_out)
    sub = w_cols / (pipe.naimark.scale * np.sqrt(pipe.plan.ports))
    v_cols = columns(_post_select(pipe, pipe.naimark.v_op.apply(psi0, layout)))
    w_res = float(np.linalg.svd(sub - v_cols, compute_uv=False)[0])
    amp_res = float(np.linalg.svd(w_cols - columns(_post_select(pipe, v_out)), compute_uv=False)[0])

    discrepancy = _reduced_trace_distance(pipe, w_out, v_out)

    v_rows = pipe.v_amp.support.rows(v_out, layout)
    prob_err = float(np.abs(pgm_probabilities(n) - outcome_probabilities(pipe, v_rows)).max())

    purity, zero_weight = _ancilla_cleanliness(pipe, v_out)
    return EndToEndResult(
        n=n,
        d=d,
        variant=variant,
        m=pipe.plan.m,
        epsilon=pipe.epsilon,
        w_residual=w_res,
        amplified_residual=amp_res,
        amplified_bound=2 * pipe.plan.m * pipe.epsilon + 1e-9,
        rho_g_reference=w_out,
        rho_g_amplified=v_out,
        discrepancy=discrepancy,
        probability_error=prob_err,
        ancilla_purity=purity,
        ancilla_zero_weight=zero_weight,
    )


def _post_select(pipe, state: np.ndarray) -> np.ndarray:
    """A state on the protocol layout with the block-encoding ancillas
    projected onto zero, the event the amplification boosts."""
    return np.where(pipe.plan.end_projector.reshape(pipe.layout.dims), state, 0)


def _ancilla_rows(pipe, state: np.ndarray) -> np.ndarray:
    """The state as an (ancilla x everything else) matrix."""
    blk = pipe.layout.block(state, pipe.naimark.ancillas)
    return blk.transpose(1, 0, 2).reshape(blk.shape[1], -1)


def _reduced_trace_distance(pipe, w: np.ndarray, v: np.ndarray) -> float:
    """Trace distance between the two protocol states after tracing out the
    block-encoding ancillas (the registers the protocol discards).

    Each reduced state is X X^dagger for its (kept x ancilla) amplitude
    matrix X.  When the kept amplitudes outnumber the ancilla columns of both
    states, (X_w, X_v) is first replaced by the column blocks of the R factor
    of [X_w, X_v], which leaves the nonzero spectrum of the difference as it
    is and never forms a kept x kept matrix."""
    x_w, x_v = (_ancilla_rows(pipe, state).T for state in (w, v))
    k = x_w.shape[1]
    if x_w.shape[0] > 2 * k:
        r = np.linalg.qr(np.hstack([x_w, x_v]), mode="r")
        x_w, x_v = r[:, :k], r[:, k:]
    diff = x_w @ x_w.conj().T - x_v @ x_v.conj().T
    evals = np.linalg.eigvalsh(diff)
    return float(np.abs(evals).sum())


def _ancilla_cleanliness(pipe, state: np.ndarray) -> tuple[float, float]:
    """Purity of the reduced ancilla state and its weight on all-zero."""
    mat = _ancilla_rows(pipe, state)
    sv = np.linalg.svd(mat, compute_uv=False)
    probs = sv**2 / (sv**2).sum()
    purity = float((probs**2).sum())
    zero_weight = float((np.abs(mat[0]) ** 2).sum() / (sv**2).sum())
    return purity, zero_weight

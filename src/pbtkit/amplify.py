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
support the start projector reaches forward under the nonzero pattern of V's
factors (``registers.Support``).  V is unitary, so no entry of a factor leads
into S from off it either, and V^dagger keeps S too; ``Support`` certifies
that rather than folding V's gate chains off S, and it folds their columns
in S alone.  The amplified product is built and run on S alone, at honest
(3,2) 6,144 of the 147,456 indices of the registers V touches:
``amplified_V`` returns a ``RestrictedProduct`` at every m, whose ``run``
takes a state's S rows and whose ``apply`` rejects a layout-shaped input
with any amplitude off S.  ``end_to_end`` runs on S rows too: it compares
the post-selected rows of V's chain and of the amplified product with the
dense dilation per outcome, and reads the trace distance and the ancilla
checks from the ancilla values S holds, so it forms no state over the whole
layout.  ``simulate.initial_state`` and ``RestrictedProduct.apply`` remain
for the layer probe of the benchmark harness and for the tests.
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
    it stays in S, the support the start projector reaches forward under the
    nonzero pattern of v's factors; ``Support`` certifies that v's factors
    are unitary on it, so v^dagger keeps S too, and raises ValueError if
    they are not.  The product runs on S alone: the v chain is ``Support``'s
    S x S dense component blocks, the v^dagger chain their conjugate
    transposes in reverse, and each diagonal its S rows, all shared across
    phases.  Its ``run`` takes the S rows of a state and allocates one
    workspace for every phase; its ``apply`` takes layout-shaped states
    supported on S and raises ValueError on any other.
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
    """Every residual of the dilation-and-amplification chain, read from the
    S rows of the protocol states."""

    n: int
    d: int
    variant: str
    m: int
    epsilon: float
    w_residual: float  # || W/(scale sqrt(ports)) - P_end V P_start ||
    amplified_residual: float  # || W - P_end V~ P_start ||
    amplified_bound: float  # 2 m epsilon
    # trace distance on the outcome and physical registers, ancillas traced out
    discrepancy: float
    probability_error: float
    ancilla_purity: float
    ancilla_zero_weight: float


def end_to_end(n: int, d: int, variant: str = "compressed") -> EndToEndResult:
    """Drive the full pipeline at (n, d) and compare against the dense
    dilation: operator residuals, protocol-state trace distance and ancilla
    cleanliness; the outcome probabilities against their exact 1/(n-1).
    Every state is held as its S rows."""
    from .pbt import kraus_from_twisted, pgm_probabilities
    from .simulate import build_pipeline, initial_rows, outcome_blocks
    from .twisted import build_twisted, maximally_entangled

    tw = build_twisted(n, d)
    pipe = build_pipeline(n, d, variant, tw=tw)
    support = pipe.v_amp.support

    def blocks(x: np.ndarray) -> np.ndarray:
        return outcome_blocks(x, pipe.row_outcome, pipe.row_system, (n - 1, pipe.system_mask.size))

    psi0 = initial_rows(pipe, maximally_entangled(d))
    keep = np.flatnonzero(pipe.system_mask)
    start = blocks(psi0)[0, keep]
    v_out = pipe.v_amp.run(psi0.copy())
    v_post = blocks(v_out)
    v_chain = blocks(RestrictedProduct(support, (support.chain,)).run(psi0))

    # reference: the dense dilation applied to the same initial state, K_i on
    # the physical system rows of outcome i, whether S holds those rows or not
    w_out = np.zeros_like(v_post)
    for i in range(1, n):
        w_out[i - 1, keep] = kraus_from_twisted(n, d, tw, i) @ start

    # psi0 is maximally entangled between the physical system and (B..., R),
    # so sqrt(d^n) times the (B..., R) columns of an output are the outputs on
    # the system basis columns: the operator residuals come from the same runs
    def spectral(a: np.ndarray) -> float:
        return float(np.linalg.svd(a.reshape(-1, a.shape[-1]) * np.sqrt(d**n), compute_uv=False)[0])

    # outcome probabilities conditioned on the ancillas returning to zero
    weights = (np.abs(v_post) ** 2).sum(axis=(1, 2))
    # the reduced ancilla state's spectrum, and its weight on all-zero
    x_v = _kept_by_ancilla(pipe, v_out)
    sv2 = np.linalg.svd(x_v, compute_uv=False) ** 2
    return EndToEndResult(
        n=n,
        d=d,
        variant=variant,
        m=pipe.plan.m,
        epsilon=pipe.epsilon,
        w_residual=spectral(w_out / (pipe.naimark.scale * np.sqrt(pipe.plan.ports)) - v_chain),
        amplified_residual=spectral(w_out - v_post),
        amplified_bound=2 * pipe.plan.m * pipe.epsilon + 1e-9,
        discrepancy=_reduced_trace_distance(w_out.reshape(-1, 1), x_v),
        probability_error=float(np.abs(pgm_probabilities(n) - weights / weights.sum()).max()),
        ancilla_purity=float(((sv2 / sv2.sum()) ** 2).sum()),
        ancilla_zero_weight=float((np.abs(x_v[:, 0]) ** 2).sum() / sv2.sum()),
    )


def _kept_by_ancilla(pipe, x: np.ndarray) -> np.ndarray:
    """The S rows ``x`` of a protocol state as a (kept x ancilla) matrix:
    its rows run over (I, system) x rest, its columns over the ancilla
    values S holds, ancilla zero first."""
    support = pipe.v_amp.support
    digits = np.stack([support.digits(nm) for nm in pipe.naimark.ancillas], axis=1)
    held, column = np.unique(digits, axis=0, return_inverse=True)
    out = np.zeros((pipe.n - 1, pipe.system_mask.size, x.shape[1], len(held)), dtype=complex)
    out[support.digits("I"), pipe.row_system, :, column] = x
    return out.reshape(-1, len(held))


def _reduced_trace_distance(x_w: np.ndarray, x_v: np.ndarray) -> float:
    """Trace distance between two protocol states after tracing out the
    block-encoding ancillas (the registers the protocol discards).

    Each reduced state is X X^dagger for its (kept x ancilla) amplitude
    matrix X.  When the kept amplitudes outnumber the ancilla columns of both
    states, (X_w, X_v) is first replaced by the column blocks of the R factor
    of [X_w, X_v], which leaves the nonzero spectrum of the difference as it
    is and never forms a kept x kept matrix."""
    k = x_w.shape[1]
    if x_w.shape[0] > k + x_v.shape[1]:
        r = np.linalg.qr(np.hstack([x_w, x_v]), mode="r")
        x_w, x_v = r[:, :k], r[:, k:]
    diff = x_w @ x_w.conj().T - x_v @ x_v.conj().T
    evals = np.linalg.eigvalsh(diff)
    return float(np.abs(evals).sum())

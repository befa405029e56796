"""Unitary block-encodings of the teleportation Kraus operators.

The target operators decompose into Schur-transform submatrices, port
permutations and scalar coefficients.  Everything non-unitary is encoded by
completing specified first rows or columns to unitaries; coefficient
injection uses a pair of row matrices mixing the irrep-label ancilla states,
and the full Kraus encoding is assembled multiplicatively with the entangling
stage and port-superposition registers, following the circuit layout
faithfully at desk scale.  The compressed variant's one-qubit dilations need
no completion: both of their blocks are functions of the measurement
operator, built in closed form by ``simulate.compressed_encodings``.

Two register-sizing modes exist: ``tight`` uses exact register dimensions and
standalone ancillas; ``padded`` rounds register dimensions up to powers of
two and, when d is itself a power of two, stores the central ancilla pair
inside qudits n-1, n during the middle stage, the layout the ledger's
qubit accounting assumes.

Every encoding's post-selected block is read one way, from one run of the
restricted chain of its support (``chain_blocks``); the dense tree
``apply`` of ``BlockEncoding.post_selected_block`` is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from .amplify import plan
from .partitions import Partition, add_box, dim_specht, dim_weyl, enumerate_partitions
from .registers import (
    Branched,
    Composite,
    Gate,
    Layout,
    Op,
    Register,
    RestrictedProduct,
    Support,
    controlled_not_gate,
)
from .schur import (
    DENSE_GUARD_BYTES,
    DenseTooLarge,
    SchurTransform,
    build_schur,
    submatrix_U_nu_alpha,
    value_cache,
)
from .symrep import Perm, compose, embed_perm, tableau_index
from .twisted import (
    TwistedSchur,
    lambda_eigenvalue,
    maximally_entangled,
    port_cycle,
)

ROW_TOL = 1e-10
GATE_TOL = 1e-10  # a coefficient gate off orthogonal
SIGN_TOL = 1e-9
# the system registers, contiguous and in this order in every layout built here
SYSTEM = ("r2", "al", "ka", "qm", "qn")


def guard_batch(dims: tuple[int, ...], columns: int) -> None:
    """Raise DenseTooLarge, before anything is allocated, when a complex batch
    of ``columns`` states over registers of these dimensions exceeds the
    dense guard.  It is a size proxy: ``BlockEncoding.verify`` reads its
    block from the restricted chain, which holds no such batch, but the
    chain's blocks grow with the layout too."""
    need = prod(dims) * columns * 16
    if need > DENSE_GUARD_BYTES:
        raise DenseTooLarge(
            f"a batch of {columns} columns over {prod(dims)} amplitudes, the size proxy "
            f"of this encoding, counts {need / 2**30:.1f} GiB, above the "
            f"{DENSE_GUARD_BYTES / 2**30:.0f} GiB guard"
        )


# ---------------------------------------------------------------------------
# generic unitary completion


def unitary_complete(rows: np.ndarray) -> np.ndarray:
    """Complete k orthonormal rows of C^m to an m x m unitary.

    The remaining rows are an orthonormal basis of the orthogonal complement
    from the SVD, each scaled so its first nonzero entry is real positive.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=complex))
    k, m = rows.shape
    if k > m:
        raise ValueError("more rows than columns")
    gram = rows @ rows.conj().T
    if np.abs(gram - np.eye(k)).max() > ROW_TOL:
        raise ValueError("rows are not orthonormal")
    if k == m:
        return np.array(rows)
    _, _, vh = np.linalg.svd(rows, full_matrices=True)
    null = vh[k:]
    fixed = []
    for row in null:
        nz = np.flatnonzero(np.abs(row) > SIGN_TOL)
        phase = row[nz[0]] / abs(row[nz[0]]) if nz.size else 1.0
        fixed.append(row / phase)
    out = np.vstack([rows, np.array(fixed)])
    if np.abs(out @ out.conj().T - np.eye(m)).max() > ROW_TOL:
        raise ArithmeticError("completion failed to produce a unitary")
    return out


# ---------------------------------------------------------------------------
# coefficients


def coefficients(n: int, d: int, alpha: Partition, nu: Partition) -> tuple[float, float]:
    """The two superposition weights attached to a child diagram; both lie in
    (0, 1]."""
    box = add_box(alpha, d)
    if nu not in box.children:
        raise ValueError(f"{nu} is not a legal-height addition to {alpha}")
    d_alpha = dim_specht(alpha)
    d_nu = dim_specht(nu)
    lam = lambda_eigenvalue(n, d, alpha, nu)
    base = (n - 1) * d_alpha
    c = (base - box.theta_dim()) ** -0.25 * base**-0.75 * d_nu / np.sqrt(lam)
    cp = d_nu / (lam * base)
    if not (0.0 < c <= 1.0 + 1e-12 and 0.0 < cp <= 1.0 + 1e-12):
        raise ArithmeticError(f"coefficient bound violated at {alpha}, {nu}")
    return float(c), float(cp)


def weight_range(n: int, d: int, variant: str) -> tuple[float, float]:
    """The interval x (``variant`` "C") or x' ("Cprime") may take: its square
    covers every diagram's weight sum, and the mixer normalization
    (n-1)^2.5 d x^4 + (n-1)^2 d x'^2 + 1 stays finite."""
    pick = ("C", "Cprime").index(variant)
    sums = [
        sum(coefficients(n, d, alpha, nu)[pick] for nu in add_box(alpha, d).children)
        for alpha in enumerate_partitions(n - 2, d)
    ]
    # the terms (n-1)^2.5 d x^4 and (n-1)^2 d x'^2 each stay below a quarter of the float range
    power, weight = ((4, (n - 1) ** 2.5), (2, (n - 1) ** 2))[pick]
    high = (np.finfo(float).max / (4 * d * weight)) ** (1 / power)
    return float(np.sqrt(max(sums))), float(high)


def kraus_scale(n: int, d: int, x: float, xp: float) -> float:
    """The subnormalization of the Kraus encoding at weights (x, x')."""
    return float((n - 1) ** 2 * d * x**4 + (n - 1) ** 1.5 * d * xp**2 + (n - 1) ** -0.5)


def amplification_weights(n: int, d: int) -> tuple[float, float]:
    """The default weights (x, x') of ``encode_kraus``.

    x' sits at the low end of its range.  The scale at both low ends fixes
    the smallest odd m the amplification can use; x is then raised from its
    low end just far enough that the post-selected amplitude
    1/(scale sqrt(n-1)) equals sin(pi/2m), so the m-phase sequence lands
    exactly on the target instead of overshooting it."""
    x_low, x_high = weight_range(n, d, "C")
    xp = weight_range(n, d, "Cprime")[0]
    ports = n - 1
    target = plan(kraus_scale(n, d, x_low, xp) * np.sqrt(ports), ports=ports).inflated_scale
    x = ((target - kraus_scale(n, d, 0.0, xp)) / (ports**2 * d)) ** 0.25
    if not x_low <= x <= x_high:
        raise ArithmeticError(
            f"amplification weight x = {x} leaves its range [{x_low}, {x_high}] at n={n}, d={d}"
        )
    return float(x), xp


# ---------------------------------------------------------------------------
# register bookkeeping


def _pow2(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


@dataclass(frozen=True, eq=False)
class EncodingSpaces:
    """Register sizes, label maps and Schur register unitaries for one (n, d).
    The register unitaries are built on first read, so code that needs only
    sizes and masks builds no Schur transform."""

    n: int
    d: int
    mode: str
    gauge_seed: int
    parts1: tuple[Partition, ...]
    parts2: tuple[Partition, ...]
    n_rnu: int
    n_nu: int
    n_al: int
    n_ka: int
    n_r2: int
    n_k: int
    reuse_qudits: bool
    a13_dim: int

    @property
    def anc_dim(self) -> int:
        return self.n_rnu * self.n_nu

    @property
    def reg1_dim(self) -> int:
        return self.anc_dim * self.n_al * self.n_ka

    @property
    def reg2_dim(self) -> int:
        return self.n_r2 * self.n_al * self.n_ka

    @property
    def system_dim(self) -> int:
        return self.reg2_dim * self.d**2

    def _label1(self, lam: Partition, r: int, tab) -> int:
        # (r, nu, xi, j) registers, xi the diagram left by removing n-1
        xi = tab.restricted_shape()
        j = tableau_index(xi)[tab.growth[:-1]]
        copy = (r - 1) * self.n_nu + self.parts1.index(lam)
        return (copy * self.n_al + self.parts2.index(xi)) * self.n_ka + j

    def _label2(self, lam: Partition, r: int, tab) -> int:
        # (r, alpha, k_alpha) registers
        k = tableau_index(lam)[tab.growth]
        return ((r - 1) * self.n_al + self.parts2.index(lam)) * self.n_ka + k

    @cached_property
    def reg1(self) -> np.ndarray:
        """The (n-1)-qudit Schur transform on the (r, nu, xi, j) registers."""
        sch = build_schur(self.n - 1, self.d, self.gauge_seed)
        return _register_schur(sch, self.reg1_dim, self._label1)

    @cached_property
    def reg2(self) -> np.ndarray:
        """The (n-2)-qudit Schur transform on the (r, alpha, k_alpha) registers."""
        sch = build_schur(self.n - 2, self.d, self.gauge_seed)
        return _register_schur(sch, self.reg2_dim, self._label2)

    def nu_state(self, nu: Partition) -> int:
        return self.parts1.index(nu)

    def alpha_state(self, alpha: Partition) -> int:
        return self.parts2.index(alpha)

    def system_registers(self) -> list[Register]:
        dims = (self.n_r2, self.n_al, self.n_ka, self.d, self.d)
        return [Register(nm, dim) for nm, dim in zip(SYSTEM, dims)]

    def system_mask(self) -> np.ndarray:
        """True at system basis states embedding the physical n qudits."""
        reg_part = np.arange(self.reg2_dim) < self.d ** (self.n - 2)
        return np.repeat(reg_part, self.d**2)

    def ledger_logs(self) -> dict[str, int]:
        if self.mode != "padded":
            raise ValueError("qubit accounting only defined in padded mode")
        return {
            "n_rnu": self.n_rnu.bit_length() - 1,
            "n_nu": self.n_nu.bit_length() - 1,
            "n_al": self.n_al.bit_length() - 1,
            "d": _pow2(self.d).bit_length() - 1,
            "ports": self.n_k.bit_length() - 1,
        }


@value_cache
def encoding_spaces(n: int, d: int, mode: str = "tight", gauge_seed: int = 0) -> EncodingSpaces:
    if mode not in ("tight", "padded"):
        raise ValueError("mode must be 'tight' or 'padded'")
    if n < 3:
        raise ValueError("encodings need n >= 3")
    parts1 = tuple(enumerate_partitions(n - 1, d))
    parts2 = tuple(enumerate_partitions(n - 2, d))
    sizes = {
        "n_rnu": max(2, max(dim_weyl(p, d) for p in parts1)),
        "n_nu": max(2, len(parts1)),
        "n_al": len(parts2),
        "n_ka": max(dim_specht(p) for p in parts2),
        "n_r2": max(dim_weyl(p, d) for p in parts2),
        "n_k": n - 1,
    }
    if mode == "padded":
        sizes = {k: _pow2(v) for k, v in sizes.items()}
    reuse = mode == "padded" and (d & (d - 1)) == 0
    a13 = (sizes["n_rnu"] * sizes["n_nu"]) ** 2 // d**2 if reuse else 0
    return EncodingSpaces(
        n=n,
        d=d,
        mode=mode,
        gauge_seed=gauge_seed,
        parts1=parts1,
        parts2=parts2,
        reuse_qudits=reuse,
        a13_dim=a13,
        **sizes,
    )


def _register_schur(sch: SchurTransform, total: int, label) -> np.ndarray:
    """Schur transform as a unitary on label registers of dimension ``total``.

    Columns: the first d^(m) flat indices are the qudit basis, the rest are
    pad columns.  Rows: the row of label (lam, r, tab) sits at flat index
    ``label(lam, r, tab)``; the completion pairs invalid labels with pad
    columns one to one, in order, which keeps conjugated permutations block
    diagonal over label sectors.
    """
    dim_q = sch.matrix.shape[0]
    out = np.zeros((total, total), dtype=complex)
    valid = np.zeros(total, dtype=bool)
    for pos, (lam, r, tab) in enumerate(sch.index):
        flat = label(lam, r, tab)
        out[flat, :dim_q] = sch.matrix[pos]
        valid[flat] = True
    _complete_identity(out, valid, dim_q)
    return out


def _complete_identity(out: np.ndarray, valid: np.ndarray, dim_q: int) -> None:
    total = out.shape[0]
    invalid_rows = np.flatnonzero(~valid)
    pad_cols = np.arange(dim_q, total)
    if len(invalid_rows) != len(pad_cols):
        raise ArithmeticError("label count does not match register dimensions")
    out[invalid_rows, pad_cols] = 1.0


def _embedded_perm(spaces: EncodingSpaces, perm: tuple[int, ...], m: int) -> np.ndarray:
    """V(perm) on the first d^m columns of the m-qudit register space, identity
    on pad columns."""
    from .schur import permutation_operator

    total = spaces.reg1_dim if m == spaces.n - 1 else spaces.reg2_dim
    src = permutation_operator(m, spaces.d, perm).source_index()
    idx = np.arange(total)
    idx[: len(src)] = src
    out = np.zeros((total, total))
    out[np.arange(total), idx] = 1.0
    return out


# ---------------------------------------------------------------------------
# coefficient-injection matrices


@dataclass(frozen=True, eq=False)
class CoefficientMatrices:
    """P_L, P_R and the label-permutation helpers, as dense matrices on the
    (copy x irrep) ancilla tensored with the diagram register."""

    p_left: np.ndarray
    p_right: np.ndarray
    p_two: np.ndarray
    c_rem: dict[Partition, float]
    collisions: tuple[tuple[int, int], ...]


def build_PL_PR(
    n: int,
    d: int,
    x: float,
    variant: str = "C",
    mode: str = "tight",
    gauge_seed: int = 0,
) -> CoefficientMatrices:
    """Coefficient-injection unitaries for weight family ``variant``.

    For each diagram alpha the left/right matrices mix the ancilla states
    {(0, e_nu)} for its legal children with the markers (1, 0) and (1, 1);
    their shared first row carries sqrt(weight)/x with the remainder weight on
    one marker each.  ``x**2`` must dominate every per-alpha weight sum.
    Ancilla states colliding with genuine Schur labels are reported, not
    avoided; the completion convention of the register Schur unitaries makes
    them harmless.
    """
    if variant not in ("C", "Cprime"):
        raise ValueError("variant must be 'C' or 'Cprime'")
    pick = ("C", "Cprime").index(variant)
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    anc = spaces.anc_dim
    dim = anc * spaces.n_al
    p_left = np.eye(dim)
    p_right = np.eye(dim)
    p_two = np.eye(dim)
    c_rem: dict[Partition, float] = {}
    for alpha in spaces.parts2:
        children = add_box(alpha, d).children
        weights = [coefficients(n, d, alpha, nu)[pick] for nu in children]
        rem = 1.0 - sum(weights) / x**2
        if rem < -1e-12:
            raise ValueError(
                f"x = {x} violates the weight constraint at alpha = {alpha}"
            )
        rem = max(rem, 0.0)
        c_rem[alpha] = rem
        states = [spaces.nu_state(nu) for nu in children]  # (0, e_nu) ancilla states
        support = states + [1 * spaces.n_nu + 0, 1 * spaces.n_nu + 1]
        m = len(children)
        first_l = np.zeros(m + 2)
        first_l[:m] = np.sqrt(np.array(weights)) / x
        first_l[m] = np.sqrt(rem)
        first_r = first_l.copy()
        first_r[m] = 0.0
        first_r[m + 1] = np.sqrt(rem)
        # complete each first row to a block whose first row sits at (0, e_nu1)
        e_a = spaces.alpha_state(alpha)
        rows = np.ix_(*[np.array(support) * spaces.n_al + e_a] * 2)
        p_left[rows] = unitary_complete(first_l[None, :]).real
        p_right[rows] = unitary_complete(first_r[None, :]).real
        # swap (0, 0) <-> (0, e_nu1) conditioned on alpha
        first_child = states[0]
        if first_child != 0:
            for a, b in ((0, first_child), (first_child, 0)):
                p_two[a * spaces.n_al + e_a, a * spaces.n_al + e_a] = 0.0
                p_two[a * spaces.n_al + e_a, b * spaces.n_al + e_a] = 1.0
    collisions = _marker_collisions(spaces)
    for mat in (p_left, p_right, p_two):
        if np.abs(mat @ mat.T - np.eye(dim)).max() > GATE_TOL:
            raise ArithmeticError("coefficient matrix is not orthogonal")
    return CoefficientMatrices(p_left, p_right, p_two, c_rem, collisions)


def _marker_collisions(spaces: EncodingSpaces) -> tuple[tuple[int, int], ...]:
    """Marker ancilla states that coincide with genuine (copy, irrep) labels."""
    hits = []
    for marker in ((1, 0), (1, 1)):
        e_r, e_nu = marker
        if e_nu < len(spaces.parts1) and e_r < dim_weyl(spaces.parts1[e_nu], spaces.d):
            hits.append(marker)
    return tuple(hits)


# ---------------------------------------------------------------------------
# post-selected blocks, read from a restricted chain


def _layout_mask(
    layout: Layout,
    pinned: tuple[str, ...],
    systems: tuple[str, ...] = (),
    sys_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask over the flat layout: the contiguous registers ``pinned``
    at zero, the contiguous registers ``systems`` restricted to ``sys_mask``
    when one is given, everything else free."""
    mask = np.ones(layout.dims, bool)
    layout.block(mask, pinned)[:, 1:] = False
    if sys_mask is not None:
        layout.block(mask, systems)[:, ~sys_mask] = False
    return mask.ravel()


def label_rows(support: Support, layout: Layout, ancillas, systems, outcome: str | None = None):
    """Each S row's outcome, the digit of the register ``outcome`` (0 when
    None) at every ancilla zero and -1 elsewhere, and its flat index on the
    registers ``systems``."""
    row_outcome = support.digits(outcome) if outcome else np.zeros(support.index.size, np.intp)
    for name in ancillas:
        row_outcome[support.digits(name) != 0] = -1
    row_system = np.ravel_multi_index(
        [support.digits(nm) for nm in systems], [layout.dim(nm) for nm in systems]
    )
    return row_outcome, row_system


def outcome_blocks(x: np.ndarray, row_outcome, row_system, shape: tuple[int, int]) -> np.ndarray:
    """The post-selected S rows of ``x`` (|S|, cols), each written at its
    outcome and its flat system index: a ``shape`` + (cols,) array,
    ``shape`` being (outcomes, system_dim), 0 where S holds no row."""
    good = np.flatnonzero(row_outcome >= 0)
    out = np.zeros(shape + x.shape[1:], dtype=complex)
    out[row_outcome[good], row_system[good]] = x[good]
    return out


def chain_blocks(
    support: Support, row_outcome: np.ndarray, row_system: np.ndarray, valid: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """The post-selected blocks of one run of ``support``'s restricted chain
    over the unit columns of the system states ``valid`` at outcome 0: each
    outcome's ancilla-zero rows (``outcome_blocks``), (outcomes, system_dim,
    valid).  A row off S is one the chain never reaches, and it is 0."""
    first = np.flatnonzero(row_outcome == 0)
    x = np.zeros((row_system.size, valid.size), dtype=complex)
    x[first] = row_system[first, None] == valid
    x = RestrictedProduct(support, (support.chain,)).run(x)
    return outcome_blocks(x, row_outcome, row_system, shape)


# ---------------------------------------------------------------------------
# block-encoding container


@dataclass(eq=False)
class BlockEncoding:
    """A unitary (as a structured op) encoding ``target / scale`` in the
    ancilla-zero block, restricted to the valid system states."""

    layout: Layout
    ancillas: tuple[str, ...]
    systems: tuple[str, ...]
    unitary: Op
    scale: float
    target: np.ndarray | None = None
    valid_mask: np.ndarray | None = None
    name: str = ""
    # ||target||_2 for the scale check, when another encoding's target shares it
    target_norm: Callable[[], float] | None = None

    def system_dim(self) -> int:
        return prod(self.layout.dim(nm) for nm in self.systems)

    def ancilla_dim(self) -> int:
        return prod(self.layout.dim(nm) for nm in self.ancillas)

    def system_mask(self) -> np.ndarray:
        """The valid mask, or every system state when none is set."""
        if self.valid_mask is not None:
            return self.valid_mask
        return np.ones(self.system_dim(), dtype=bool)

    def post_selected_block(self) -> np.ndarray:
        """scale * <0_anc| U |0_anc> over the system registers, restricted to
        the valid mask when one is set, from the dense tree ``apply`` of a
        batch over the whole layout: the oracle ``verify`` is checked
        against."""
        sys_dim = self.system_dim()
        cols_in = np.flatnonzero(self.system_mask())
        guard_batch(self.layout.dims, len(cols_in))
        batch = self.layout.embed(self.systems, np.eye(sys_dim, dtype=complex)[:, cols_in])
        out = self.unitary.apply(batch, self.layout)
        # ancillas at zero
        rows = self.layout.block(out, self.systems)[0, :, : len(cols_in)]
        return self.scale * rows[cols_in, :]

    def verify(self) -> float:
        """Residual ||target - scale * block|| (``residual``), the block read
        from the restricted chain of the unitary's support from the ancillas
        at zero and the valid system states (``chain_blocks``).  Raises
        DenseTooLarge first when ``guard_batch``'s size proxy does."""
        valid = np.flatnonzero(self.system_mask())
        guard_batch(self.layout.dims, valid.size)
        start = _layout_mask(self.layout, self.ancillas, self.systems, self.valid_mask)
        support = Support(self.unitary, self.layout, start)
        row_outcome, row_system = label_rows(support, self.layout, self.ancillas, self.systems)
        block = chain_blocks(support, row_outcome, row_system, valid, (1, self.system_dim()))[0]
        return self.residual(self.scale * block[valid])

    def residual(self, block: np.ndarray) -> float:
        """Residual ||target - block|| of a post-selected block, scale
        included, over the valid system states.

        Also enforces the declared-scale bound: the scale may exceed the
        target norm but never undercut it by more than the residual.
        """
        if self.target is None:
            raise ValueError("no target stored on this encoding")
        keep = np.flatnonzero(self.system_mask())
        tgt = self.target
        if tgt.shape[0] != keep.size:  # a target over the whole system
            tgt = tgt[np.ix_(keep, keep)]
        # real when its entries are: a real SVD takes about half the time
        err = float(np.linalg.norm(tgt - (block if block.imag.any() else block.real), 2))
        norm = self.target_norm() if self.target_norm is not None else np.linalg.norm(tgt, 2)
        if self.scale < norm - err - 1e-9:
            raise ArithmeticError(f"declared scale of {self.name} undercuts the target norm")
        return err


# ---------------------------------------------------------------------------
# the concrete encodings


def _alpha_copy_matrix(spaces: EncodingSpaces) -> np.ndarray:
    """Permutation on (copy, diagram) registers adding the diagram value into
    the copy register modulo its size."""
    na = spaces.n_al
    out = np.zeros((na * na, na * na))
    for a in range(na):
        for x in range(na):
            out[((a + x) % na) * na + x, a * na + x] = 1.0
    return out


def _sandwich_matrix(spaces: EncodingSpaces, coeff: CoefficientMatrices, perm: Perm) -> np.ndarray:
    """Dense unitary on (ancilla, diagram-copy, alpha, k_alpha) whose
    ancilla-zero block carries the weighted irrep-block sums for the port
    permutation ``perm`` (the product V(a) V(b) of a pair is V(compose(a,
    b))), diagonal in the diagram register.

    The diagram-copy wrap pins the final diagram value to the initial one
    under post-selection; without it the coefficient sandwich leaks
    cross-diagram terms whenever two diagrams share a child irrep (any
    n >= 4).  The copy register is trivial when only one diagram exists.
    """
    n = spaces.n
    reg = spaces.reg1
    ka_eye = np.eye(spaces.n_ka)
    middle = reg @ _embedded_perm(spaces, perm, n - 1) @ reg.conj().T
    pl = np.kron(coeff.p_left, ka_eye)
    pr = np.kron(coeff.p_right, ka_eye)
    p2 = np.kron(coeff.p_two, ka_eye)
    core = p2 @ pl @ middle @ pr.conj().T @ p2
    # lift (anc, al, ka) -> (anc, acopy, al, ka) and wrap with the copy pair
    anc, na, ka = spaces.anc_dim, spaces.n_al, spaces.n_ka
    core4 = core.reshape(anc, na * ka, anc, na * ka)
    lifted = np.einsum("aibj,cd->acibdj", core4, np.eye(na)).reshape(
        anc * na * na * ka, anc * na * na * ka
    )
    copy = np.kron(np.eye(anc), np.kron(_alpha_copy_matrix(spaces), ka_eye))
    return copy.T @ lifted @ copy


def dense_O(
    spaces: EncodingSpaces,
    perm_a: tuple[int, ...],
    perm_b: tuple[int, ...],
    variant: str = "C",
) -> np.ndarray:
    """Direct evaluation of the weighted sum of Schur-submatrix products, as
    an operator on the (alpha, k_alpha) registers (zero outside valid labels)."""
    n, d = spaces.n, spaces.d
    sch = build_schur(n - 1, d, spaces.gauge_seed)
    from .schur import permutation_dense

    va = permutation_dense(n - 1, d, perm_a)
    vb = permutation_dense(n - 1, d, perm_b)
    dim = spaces.n_al * spaces.n_ka
    out = np.zeros((dim, dim), dtype=complex)
    for alpha in spaces.parts2:
        e_a = spaces.alpha_state(alpha)
        d_alpha = dim_specht(alpha)
        acc = np.zeros((d_alpha, d_alpha), dtype=complex)
        for nu in add_box(alpha, d).children:
            c, cp = coefficients(n, d, alpha, nu)
            w = c if variant == "C" else cp
            u_nu = submatrix_U_nu_alpha(sch, nu, alpha)
            acc += w * (u_nu @ va @ vb @ u_nu.conj().T)
        sl = slice(e_a * spaces.n_ka, e_a * spaces.n_ka + d_alpha)
        out[sl, sl] = acc
    return out


def _o_valid_mask(spaces: EncodingSpaces) -> np.ndarray:
    mask = np.zeros(spaces.n_al * spaces.n_ka, dtype=bool)
    for alpha in spaces.parts2:
        e_a = spaces.alpha_state(alpha)
        mask[e_a * spaces.n_ka : e_a * spaces.n_ka + dim_specht(alpha)] = True
    return mask


def encode_O(
    n: int,
    d: int,
    k: int,
    i: int,
    x: float,
    mode: str = "tight",
    gauge_seed: int = 0,
) -> BlockEncoding:
    """Block-encoding of the diagram-conditioned weighted irrep sums for port
    pair (k, i), with scale x**2 and the (copy, irrep) pair as ancilla."""
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    coeff = build_PL_PR(n, d, x, "C", mode, gauge_seed)
    mat = _sandwich_matrix(spaces, coeff, compose(port_cycle(k, n), port_cycle(i, n)))
    layout = Layout(
        [
            Register("anc", spaces.anc_dim),
            Register("acopy", spaces.n_al),
            Register("al", spaces.n_al),
            Register("ka", spaces.n_ka),
        ]
    )
    return BlockEncoding(
        layout=layout,
        ancillas=("anc", "acopy"),
        systems=("al", "ka"),
        unitary=Gate(("anc", "acopy", "al", "ka"), mat),
        scale=x**2,
        target=dense_O(spaces, port_cycle(k, n), port_cycle(i, n), "C"),
        valid_mask=_o_valid_mask(spaces),
        name=f"O(k={k},i={i})",
    )


def _us_matrix(d: int) -> np.ndarray:
    """Two-qudit unitary sending the maximally entangled state to |00>."""
    return unitary_complete(maximally_entangled(d)[None, :])


def encode_Phi(n: int, d: int, mode: str = "tight", gauge_seed: int = 0) -> BlockEncoding:
    """Block-encoding of the squared-up entangling stage: the register Schur
    transform tensored with the projection of qudits n-1, n onto the
    maximally entangled state, scale sqrt(d), one ancilla qubit."""
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    layout = Layout([Register("A2", 2)] + spaces.system_registers())
    us = _us_matrix(d)
    proj = np.zeros((d * d, d * d))
    proj[0, 0] = 1.0
    phi_tilde = np.sqrt(d) * np.kron(spaces.reg2, proj @ us)
    return BlockEncoding(
        layout=layout,
        ancillas=("A2",),
        systems=SYSTEM,
        unitary=Composite(_body_gates(n, d, mode, gauge_seed).phi_in),
        scale=float(np.sqrt(d)),
        target=phi_tilde,
        valid_mask=None,
        name="Phi",
    )


def _vl_gate(spaces: EncodingSpaces, k: int) -> Gate:
    """Port permutation (k, n-1) on the physical qudits, identity on pads."""
    from .schur import permutation_operator

    n, d = spaces.n, spaces.d
    perm = embed_perm(port_cycle(k, n), n)
    src = permutation_operator(n, d, perm).source_index()
    total = spaces.system_dim
    idx = np.arange(total)
    mask = np.flatnonzero(spaces.system_mask())
    idx[mask] = mask[src]
    mat = np.zeros((total, total), dtype=complex)
    mat[np.arange(total), idx] = 1.0
    return Gate(SYSTEM, mat)


def _read_only(gate: Gate) -> Gate:
    """``gate``, its matrix made read-only.  A cached gate is the one object
    for every equal gate of every branch body and port, so an in-place edit
    must raise rather than reach all of them."""
    gate.matrix.flags.writeable = False
    return gate


class _BodyGates(NamedTuple):
    vl: tuple[Gate, ...]  # V_k for port k at [k - 1]
    phi_in: tuple[Gate, ...]  # the entangling stage, flagged on A2
    phi_out: tuple[Gate, ...]  # its adjoint, flagged on A3
    mark12: Gate
    mark11: Gate


@value_cache
def _body_gates(n: int, d: int, mode: str, gauge_seed: int) -> _BodyGates:
    """The gates of the branch bodies that no weight enters, built once per
    (n, d, mode, gauge_seed) and read-only."""
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    us = _read_only(Gate(("qm", "qn"), _us_matrix(d)))
    sch = _read_only(Gate(("r2", "al", "ka"), spaces.reg2))

    def mark(flag: str) -> Gate:
        return _read_only(Gate((flag, "qm", "qn"), controlled_not_gate(2, [d, d]).astype(complex)))

    return _BodyGates(
        vl=tuple(_read_only(_vl_gate(spaces, k)) for k in range(1, n)),
        phi_in=(us, sch, mark("A2")),
        phi_out=tuple(map(_read_only, Composite((us, sch, mark("A3"))).adjoint().ops)),
        mark12=mark("A12"),
        mark11=mark("A11"),
    )


_coefficient_matrices = value_cache(build_PL_PR)


@value_cache
def _sandwich_gate(
    n: int, d: int, mode: str, gauge_seed: int, weight: float, variant: str, perm: Perm, side: str
) -> Gate:
    """The coefficient sandwich of ``_sandwich_matrix`` for the port
    permutation ``perm`` at weights ``build_PL_PR(n, d, weight, variant)``,
    as a read-only gate on the left ancilla pair (``side`` "l") or its
    adjoint on the right one ("r"), built once per value."""
    if side == "r":
        left = _sandwich_gate(n, d, mode, gauge_seed, weight, variant, perm, "l")
        return _read_only(Gate(("ancr", "acopyr", "al", "ka"), left.matrix.conj().T))
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    coeff = _coefficient_matrices(n, d, weight, variant, mode, gauge_seed)
    return _read_only(Gate(("ancl", "acopyl", "al", "ka"), _sandwich_matrix(spaces, coeff, perm)))


@value_cache
def _pair_gate(
    n: int, d: int, mode: str, gauge_seed: int, weight: float, variant: str, left: Perm, right: Perm | None
) -> Gate:
    """The sandwiches ``left`` and, when not None, ``right`` (its adjoint
    acting first) as one read-only gate stored in the freed qudits
    (``_pair_matrix``), built once per value."""
    spaces = encoding_spaces(n, d, mode, gauge_seed)

    def sandwich(perm: Perm) -> np.ndarray:
        return _sandwich_gate(n, d, mode, gauge_seed, weight, variant, perm, "l").matrix

    mat = _pair_matrix(spaces, sandwich(left), None if right is None else sandwich(right))
    return _read_only(Gate(("qm", "qn", "A13", "acopyl", "acopyr", "al", "ka"), mat))


@dataclass(eq=False)
class LedgerRow:
    name: str
    scale: float
    ancilla_qubits: int | None
    ancilla_dim: int


def _pair_matrix(
    spaces: EncodingSpaces, left: np.ndarray, right: np.ndarray | None
) -> np.ndarray:
    """Two-copy central stage as one dense matrix, with the copy ancilla pair
    flattened so it can be stored in (qm, qn, A13); the adjoint sandwich on
    the second copy is applied first."""
    anc, na, ka = spaces.anc_dim, spaces.n_al, spaces.n_ka
    shape = (anc, na, na, ka) * 2  # (anc, acopy, al, ka), out then in
    if right is None:
        right = np.eye(left.shape[0])
    # out (ancl, ancr, acopyl, acopyr, al, ka), then in; the adjoint of
    # ``right`` acts first, and (y, m) is (al, ka) between the two
    mat = np.einsum(
        "pqxkPQym,RSzjrsym->prqsxkPRQSzj", left.reshape(shape), right.conj().reshape(shape)
    )
    return mat.reshape(left.shape[0] * anc * na, -1)


def summand_ops(
    spaces: EncodingSpaces,
    x: float,
    xp: float,
    i: int,
    kl: int,
    kr: int,
    primed: bool,
) -> Composite:
    """One controlled branch body: port permutations, entangling stage,
    central coefficient sandwich wrapped in the two nonzero-state markers on
    qudits n-1, n, and the reverse entangling stage.  Every gate is the
    cached one for its value, so equal gates of all bodies and ports are one
    object."""
    n = spaces.n
    key = (n, spaces.d, spaces.mode, spaces.gauge_seed)
    body = _body_gates(*key)
    if primed:
        weight, variant = xp, "Cprime"
        left, right = compose(port_cycle(kl, n), port_cycle(kr, n)), None
    else:
        weight, variant = x, "C"
        left, right = (compose(port_cycle(k, n), port_cycle(i, n)) for k in (kl, kr))
    if spaces.reuse_qudits:
        center: tuple[Gate, ...] = (_pair_gate(*key, weight, variant, left, right),)
    else:
        sides = ((right, "r"), (left, "l")) if right is not None else ((left, "l"),)
        center = tuple(_sandwich_gate(*key, weight, variant, perm, side) for perm, side in sides)
    return Composite(
        (body.vl[kr - 1],)
        + body.phi_in
        + (body.mark12,)
        + center
        + (body.mark11,)
        + body.phi_out
        + (body.vl[kl - 1],)
    )


def _mixer(first_row: np.ndarray) -> np.ndarray:
    return unitary_complete(first_row[None, :] / np.linalg.norm(first_row))


def port_mixer(spaces: EncodingSpaces) -> np.ndarray:
    """Uniform superposition over the n-1 genuine port states."""
    row = np.zeros(spaces.n_k)
    row[: spaces.n - 1] = 1.0
    return _mixer(row)


def branch_mixers(n: int, d: int, x: float, xp: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The two 4-state mixers weighting the three summand families, and their
    shared normalization."""
    a = (n - 1) ** 1.25 * np.sqrt(d) * x**2
    b = (n - 1) * np.sqrt(d) * xp
    c = (a**2 + b**2 + 1) ** -0.5
    left = np.array([a, b, 1.0, 0.0]) * c
    right = np.array([a, -b, 1.0, 0.0]) * c
    return _mixer(left), _mixer(right), c


@value_cache
def _mixer_gates(n: int, d: int, mode: str, gauge_seed: int, x: float, xp: float) -> tuple[Gate, Gate]:
    """The mixers before and after the branches, each fused into one
    read-only gate on (A4, kl, kr): u_r^dagger (x) u_k^dagger (x)
    u_k^dagger, and u_l (x) u_k (x) u_k."""
    u_l, u_r, _ = branch_mixers(n, d, x, xp)
    u_k = port_mixer(encoding_spaces(n, d, mode, gauge_seed))
    names = ("A4", "kl", "kr")
    before = reduce(np.kron, (u_r.conj().T, u_k.conj().T, u_k.conj().T))
    return _read_only(Gate(names, before)), _read_only(Gate(names, reduce(np.kron, (u_l, u_k, u_k))))


def encode_kraus(
    n: int,
    d: int,
    tw: TwistedSchur,
    i: int,
    x: float | None = None,
    xp: float | None = None,
    mode: str = "tight",
) -> BlockEncoding:
    """Full block-encoding of the Kraus operator for outcome ``i``, in the
    multiplicity gauge of ``tw``.

    The three summand families (support part, complement superposition part,
    identity) are weighted by the 4-state mixers and the port-superposition
    registers; the scale is ``kraus_scale``,
    (n-1)^2 d x^4 + (n-1)^(3/2) d x'^2 + (n-1)^(-1/2).  Weights left as None
    are taken from ``amplification_weights``, the smallest ones whose scale
    the amplification sequence removes exactly.

    The unitary is three ops: the mixers u_r^dagger, u_k^dagger, u_k^dagger
    fused into one gate on (A4, kl, kr), the branches on (A4, kl, kr) (one
    ``summand_ops`` body per key), and the fused mixers u_l, u_k, u_k.
    Every gate is built once per value of what it depends on and shared,
    read-only: the bodies of one port, and the encodings of every port at
    the same (n, d, mode, gauge, weights), hold one object for each
    distinct gate.
    """
    if x is None or xp is None:
        x_amp, xp_amp = amplification_weights(n, d)
        x = x_amp if x is None else x
        xp = xp_amp if xp is None else xp
    spaces = encoding_spaces(n, d, mode, tw.gauge_seed)
    # raise on weights below a diagram's weight sum before anything is built
    for weight, variant in ((x, "C"), (xp, "Cprime")):
        _coefficient_matrices(n, d, weight, variant, mode, tw.gauge_seed)
    ancillas = _kraus_ancillas(spaces)
    layout = Layout(ancillas + spaces.system_registers())
    branches = []
    for kl in range(n - 1):
        for kr in range(n - 1):
            for primed in (0, 1):
                branches.append(
                    ((primed, kl, kr), summand_ops(spaces, x, xp, i, kl + 1, kr + 1, bool(primed)))
                )
    before, after = _mixer_gates(n, d, mode, tw.gauge_seed, x, xp)
    scale = kraus_scale(n, d, x, xp)
    from .pbt import kraus_from_twisted

    target = kraus_from_twisted(n, d, tw, i)
    mask = spaces.system_mask()
    return BlockEncoding(
        layout=layout,
        ancillas=tuple(r.name for r in ancillas),
        systems=SYSTEM,
        unitary=Composite((before, Branched(("A4", "kl", "kr"), tuple(branches)), after)),
        scale=scale,
        target=target,
        valid_mask=mask,
        name=f"sqrtPi({i})",
    )


def _kraus_ancillas(spaces: EncodingSpaces) -> list[Register]:
    regs = [
        Register("A4", 4),
        Register("kl", spaces.n_k),
        Register("kr", spaces.n_k),
        Register("A3", 2),
        Register("A11", 2),
        Register("A12", 2),
    ]
    if spaces.reuse_qudits:
        regs.append(Register("A13", spaces.a13_dim))
    else:
        regs.append(Register("ancl", spaces.anc_dim))
        regs.append(Register("ancr", spaces.anc_dim))
    regs.append(Register("acopyl", spaces.n_al))
    regs.append(Register("acopyr", spaces.n_al))
    regs.append(Register("A2", 2))
    return regs


def kraus_ledger(
    n: int, d: int, x: float, xp: float, mode: str, gauge_seed: int = 0
) -> list[LedgerRow]:
    """Scale and ancilla accounting for every named encoding stage.

    In padded mode the qubit counts follow the reuse-layout accounting, with the
    central ancilla pair stored in the two freed qudit registers.
    """
    spaces = encoding_spaces(n, d, mode, gauge_seed)
    anc = spaces.anc_dim * spaces.n_al  # includes the diagram-copy register
    central = 4 * spaces.n_al**2 * (
        spaces.a13_dim if spaces.reuse_qudits else spaces.anc_dim**2
    )
    full_anc = prod(r.dim for r in _kraus_ancillas(spaces))
    # name, scale, padded-mode qubits as coefficients on (n_rnu, n_nu, n_al, d,
    # ports) plus a constant, ancilla dimension; the n_al terms account for the
    # diagram-copy registers and vanish whenever a single diagram exists
    table = [
        ("O(alpha,k,i)", x**2, (1, 1, 1, 0, 0), 0, anc),
        ("O_cen(i,kl,kr)", x**4, (2, 2, 2, 0, 0), 0, anc**2),
        ("Phi", float(np.sqrt(d)), (0, 0, 0, 0, 0), 1, 2),
        ("O_cen_tilde(i,kl,kr)", x**4, (2, 2, 2, -2, 0), 2, central),
        ("summand(i,kl,kr)", d * x**4, (2, 2, 2, -2, 0), 4, 4 * central),
        ("sqrtPi(i)", kraus_scale(n, d, x, xp), (2, 2, 2, -2, 2), 6, full_anc),
    ]
    logs = spaces.ledger_logs() if mode == "padded" else None
    rows = []
    for name, scale, coeffs, const, dim in table:
        qubits = None
        if logs is not None:
            qubits = const + sum(c * q for c, q in zip(coeffs, logs.values()))
        rows.append(LedgerRow(name, scale, qubits, dim))
    return rows


# ---------------------------------------------------------------------------
# Naimark dilation


@dataclass(eq=False)
class NaimarkDilation:
    """Outcome-controlled Kraus encodings plus the outcome-superposition
    preparer; applying ``v_op`` to the all-zero ancilla implements the
    measurement dilation up to the shared encoding scale."""

    layout: Layout
    ancillas: tuple[str, ...]  # the encodings' ancillas, contiguous after the outcome register I
    systems: tuple[str, ...]  # the encodings' system registers
    u0: np.ndarray
    uc_op: Op
    v_op: Op
    scale: float


def naimark_Uc(n: int, d: int, encodings: list[BlockEncoding]) -> NaimarkDilation:
    """Combine per-outcome encodings into the outcome-controlled unitary and
    the uniform-superposition preparer."""
    if len(encodings) != n - 1:
        raise ValueError(f"need {n - 1} encodings")
    base = encodings[0]
    for enc in encodings:
        if (enc.layout.names, enc.systems, enc.scale) != (base.layout.names, base.systems, base.scale):
            raise ValueError("encodings must share layout, systems and scale")
    layout = Layout([Register("I", n - 1)] + list(base.layout.registers))
    col = np.full(n - 1, 1.0 / np.sqrt(n - 1))
    u0 = unitary_complete(col[None, :]).conj().T  # first column is the superposition
    uc = Branched(
        ("I",), tuple(((idx,), enc.unitary) for idx, enc in enumerate(encodings))
    )
    v = Composite((Gate(("I",), u0.astype(complex)), uc))
    return NaimarkDilation(
        layout=layout,
        ancillas=base.ancillas,
        systems=base.systems,
        u0=u0,
        uc_op=uc,
        v_op=v,
        scale=base.scale,
    )


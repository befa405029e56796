"""Register-structured linear operators applied without materializing them.

A Layout names an ordered list of registers; state vectors are ndarrays with
one axis per register (trailing axes are treated as batch).  Operators are
small dense gates bound to register names, composed into sequences and
branch-selected maps.  Branch bodies act on rank-preserving slices, so a gate
inside a deeply controlled composite only ever touches the small sub-array it
acts on; nothing here ever builds the full-space matrix unless asked to.
The op tree is the one definition of an operator.

``Support`` reads an op tree as a product of sparse factors and finds S, the
forward closure of a start mask's support: the smallest set of flat indices
that holds it and that no entry of any factor leads out of, from a column in
S to a row off it.  Each controlled gate chain is one matrix per branch, a
sum over the paths through its gates, and it is folded on demand: a column
is folded when the reach first meets it, so only S's columns are ever
formed.  A chain of unitary gates is unitary, and then no entry leads into S
from off it either; ``Support`` certifies that (every folded gate unitary,
every S row of unit norm in its S x S block) instead of folding the columns
off S.  So every factor splits exactly into an S block and an S^c block, and
a state that starts in S can be run through the S x S blocks alone
(``RestrictedProduct``, which rejects a state with amplitude off S).  Each
S x S block is held as dense component blocks (``BlockFactor``); a block
shared by every fibre of one register multiplies a reshaped view of the
state, and the rest gather into a workspace allocated once per run.  Nothing
here needs more than numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Register:
    name: str
    dim: int


class Layout:
    """Ordered registers; the state space is their tensor product."""

    def __init__(self, registers: list[Register] | tuple[Register, ...]):
        self.registers = tuple(registers)
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        self._axis = {r.name: i for i, r in enumerate(self.registers)}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def size(self) -> int:
        return prod(self.dims)

    def axis(self, name: str) -> int:
        return self._axis[name]

    def dim(self, name: str) -> int:
        return self.registers[self._axis[name]].dim

    def zeros(self, batch: tuple[int, ...] = ()) -> np.ndarray:
        return np.zeros(self.dims + batch, dtype=complex)

    def basis_state(self, assignment: dict[str, int] | None = None) -> np.ndarray:
        vec = self.zeros()
        assignment = assignment or {}
        vec[tuple(assignment.get(r.name, 0) for r in self.registers)] = 1.0
        return vec

    def block(self, arr: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
        """A layout-shaped array (trailing batch axes allowed) reshaped to
        (before, block, after): the registers ``names``, contiguous and in
        layout order, flattened into the middle axis, the registers before
        them into the first, and those after them, batch included, into the
        last.  Index 0 of the first axis, and ``[:k]`` of the last for a batch
        of k, put every other register at 0.  A view of a C-contiguous array;
        raises ValueError when ``names`` are not contiguous."""
        first = self._axis[names[0]]
        if [self._axis[nm] for nm in names] != list(range(first, first + len(names))):
            raise ValueError(f"registers {names} are not contiguous in the layout")
        return arr.reshape(prod(arr.shape[:first]), prod(self.dims[first : first + len(names)]), -1)

    def embed(self, names: tuple[str, ...], cols: np.ndarray) -> np.ndarray:
        """Layout-shaped batch of the (block dim x k) columns ``cols`` on the
        contiguous registers ``names``, every other register at 0."""
        out = np.zeros(self.dims + cols.shape[1:], dtype=cols.dtype)
        self.block(out, names)[0, :, : cols.shape[1]] = cols
        return out


class Op:
    """Linear operator on layout-shaped arrays."""

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self) -> "Op":
        raise NotImplementedError


def _act(matrix: np.ndarray, arr: np.ndarray, axes: list[int]) -> np.ndarray:
    k = len(axes)
    dims = [arr.shape[a] for a in axes]
    mat = matrix.reshape(dims + dims)
    out = np.tensordot(mat, arr, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


@dataclass(frozen=True)
class Gate(Op):
    """Dense matrix on the tensor product of the named registers, in the
    row-major order of ``names``; identity everywhere else."""

    names: tuple[str, ...]
    matrix: np.ndarray

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        return _act(self.matrix, arr, [layout.axis(nm) for nm in self.names])

    def adjoint(self) -> "Gate":
        return Gate(self.names, self.matrix.conj().T)


@dataclass(frozen=True)
class Branched(Op):
    """Per-branch operators selected by the values of control registers.

    Branch keys are tuples of computational values of ``controls``; absent
    keys act as the identity.  Control axes are sliced to length one, so the
    branch bodies are ordinary ops bound to the same layout (they must not
    touch the control registers).
    """

    controls: tuple[str, ...]
    branches: tuple[tuple[tuple[int, ...], Op], ...]

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        axes = [layout.axis(nm) for nm in self.controls]
        bodies = dict(self.branches)
        out = np.empty(arr.shape, dtype=complex)
        for key in np.ndindex(*(arr.shape[a] for a in axes)):
            idx: list = [slice(None)] * arr.ndim
            for ax, v in zip(axes, key):
                idx[ax] = slice(v, v + 1)
            sl = tuple(idx)
            op = bodies.get(key)
            out[sl] = arr[sl] if op is None else op.apply(arr[sl], layout)
        return out

    def adjoint(self) -> "Branched":
        return Branched(
            self.controls, tuple((k, op.adjoint()) for k, op in self.branches)
        )


@dataclass(frozen=True)
class Composite(Op):
    """Sequential product; ``ops[0]`` acts first."""

    ops: tuple[Op, ...]

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        out = arr
        for op in self.ops:
            out = op.apply(out, layout)
        return out

    def adjoint(self) -> "Composite":
        return Composite(tuple(op.adjoint() for op in reversed(self.ops)))


def controlled_not_gate(flag_dim: int, cond_dims: list[int]) -> np.ndarray:
    """Cycle the flag register by one unless the condition registers are all
    zero; used to mark 'anything but the zero state' on an ancilla."""
    cdim = prod(cond_dims)
    flip = np.roll(np.eye(flag_dim), 1, axis=0)
    out = np.zeros((flag_dim * cdim, flag_dim * cdim))
    for c in range(cdim):
        block = np.eye(flag_dim) if c == 0 else flip
        out[c::cdim, c::cdim] = block
    return out


class Csr(NamedTuple):
    """The nonzeros of a square matrix, row after row: row r holds
    ``data[indptr[r]:indptr[r + 1]]`` in the columns ``indices[...]``, each
    column at most once; the index arrays are int32."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.indptr.size - 1, dtype=np.int32), np.diff(self.indptr))


def _csr(row: np.ndarray, col: np.ndarray, data: np.ndarray, size: int) -> Csr:
    """The ``Csr`` of entries sorted by row, each row's cols ascending."""
    indptr = np.searchsorted(row, np.arange(size + 1)).astype(np.int32)
    return Csr(indptr, col.astype(np.int32), data)


def _is_gate_chain(op: Op) -> bool:
    return (
        isinstance(op, Composite)
        and len(op.ops) >= 2
        and all(isinstance(o, Gate) for o in op.ops)
    )


def _kept(gate: Gate, offset: np.ndarray) -> tuple:
    """The table ``_move`` multiplies by: the kept entries of ``gate``
    column by column, on the flat index ``offset`` of each gate state with
    every other register at 0.  A gate with at most one kept entry per
    column gives (step, scale), each state's row shift and factor (0 for a
    column with none); any other (count, first, shift, g), each column's
    number of kept entries and the place of its first one, and each kept
    entry's row shift and value."""
    # entries at rounding level of the largest one are residue of how the
    # gate was built; dropping them keeps the folded product sparse
    mag = np.abs(gate.matrix)
    to, frm = np.nonzero((mag > np.finfo(float).eps * mag.max()).T)  # column by column
    g = gate.matrix[frm, to]
    g = g if g.imag.any() else g.real
    shift = offset[frm] - offset[to]
    count = np.bincount(to, minlength=offset.size)
    if count.max() <= 1:
        step, scale = np.zeros(offset.size, np.intp), np.zeros(offset.size, g.dtype)
        step[to], scale[to] = shift, g
        return step, scale
    return count, np.cumsum(count) - count, shift, g


def _move(table: tuple, loc: np.ndarray, row, col, val):
    """The entries (row, col, val) of a folded matrix on the flat index of
    the touched registers, multiplied by a gate (its ``_kept`` table): an
    entry on row (l, rest), l = ``loc[row]`` the gate's register state,
    becomes one entry on row (l', rest) with value g[l', l] * val for each
    kept g[l', l], and keeps its col and its place in the order of the
    entries."""
    local = loc[row]
    if len(table) == 2:
        # each entry is moved and scaled in place; one in a column that holds
        # no entry is scaled to 0, and exact zeros are dropped at the end
        step, scale = table
        return row + step[local], col, val * scale[local]
    count, first, shift, g = table
    fan = count[local]  # how many entries each one becomes
    ends = np.cumsum(fan)
    rep = np.repeat(np.arange(row.size), fan)  # the entry each new one comes from
    at = np.arange(rep.size)
    at += (first[local] - ends + fan)[rep]  # and the kept gate entry it takes
    del local, fan, ends
    row = row[rep]
    row += shift[at]
    return row, col[rep], val[rep] * g[at]


class _ChainFold:
    """A Branched whose bodies are all gate chains, set up to multiply each
    body's gates into one matrix on the touched registers (in layout order)
    over any set of its columns (``fold``).  ``bodies`` holds each branch's
    controls and its gates as ``_move`` steps; equal gates, in one body or
    several, share one ``_kept`` table, built once."""

    def __init__(self, op: Branched, layout: Layout):
        names = {nm for _, body in op.branches for gate in body.ops for nm in gate.names}
        if names & set(op.controls):
            raise ValueError("branch bodies must not touch their control registers")
        self.touched = tuple(nm for nm in layout.names if nm in names)
        dims = tuple(layout.dim(nm) for nm in self.touched)
        self.size = prod(dims)
        index = np.arange(self.size).reshape(dims)
        places = {}  # (loc, offset) of each set of gate registers
        tables = {}  # the kept-entry table of each distinct gate
        self.gates = {}  # each distinct gate, equal ones in any body once
        self.bodies = []
        for key, body in op.branches:
            steps = []
            for gate in body.ops:
                if gate.names not in places:
                    axes = [self.touched.index(nm) for nm in gate.names]
                    # flat index of (gate state, state of the other registers)
                    flat = np.moveaxis(index, axes, range(len(axes))).reshape(gate.matrix.shape[0], -1)
                    loc = np.empty(self.size, np.intp)
                    loc[flat] = np.arange(flat.shape[0])[:, None]
                    places[gate.names] = loc, flat[:, 0]
                loc, offset = places[gate.names]
                same = (gate.names, gate.matrix.dtype.str, gate.matrix.tobytes())
                if same not in tables:
                    self.gates[same] = gate
                    tables[same] = _kept(gate, offset)
                steps.append((loc, tables[same]))
            self.bodies.append((dict(zip(op.controls, key)), tuple(steps)))

    def fold(self, steps: tuple, cols: np.ndarray):
        """The entries (row, col, val) of the columns ``cols`` (ascending) of
        one body's product, as a sum over paths, sorted by row and each row's
        cols ascending.  The entries start as the identity's on ``cols`` and
        each gate moves them (``_move``), which keeps each column's entries
        together and in order; the entries that end on one (row, col) are
        summed once, in that order, after the last gate, and exact zeros are
        dropped.  So a column's entries, to the bit, do not depend on which
        other columns are folded with it."""
        row, col, val = cols.copy(), cols, np.ones(cols.size)
        for loc, table in steps:
            row, col, val = _move(table, loc, row, col, val)
        # sort by row, ties by place, so that each row's cols stay ascending
        # and equal (row, col) entries meet; (row, place) packs into one
        # int64 while size * places < 2**62
        bits = row.size.bit_length()
        row <<= bits
        row |= np.arange(row.size)
        row.sort()
        order = row & ((1 << bits) - 1)
        row >>= bits
        col, val = col[order], val[order]
        del order
        new = np.ones(row.size, bool)
        new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        starts = np.flatnonzero(new)
        data = np.add.reduceat(val, starts)
        nonzero = data != 0
        row, col, data = row[starts[nonzero]], col[starts[nonzero]], data[nonzero]
        return row, col, data if data.imag.any() else data.real


def _fold_branches(op: Branched, layout: Layout) -> list[tuple[dict, tuple[str, ...], Csr]]:
    """Multiply each body's gates into one matrix per branch key on the
    touched registers (in layout order), over every column (``_ChainFold``):
    the pieces of one factor, as ``_factors`` gives them."""
    chains = _ChainFold(op, layout)
    every = np.arange(chains.size)
    return [
        (ctl, chains.touched, _csr(*chains.fold(steps, every), chains.size))
        for ctl, steps in chains.bodies
    ]


class _Columns:
    """One branch key of a ``_ChainFold``, folded only on the columns asked
    for, each once (``spans``)."""

    def __init__(self, chains: _ChainFold, steps: tuple):
        self.chains, self.steps = chains, steps
        size = chains.size
        self.folded = np.zeros(size, bool)
        # the (row, col, val) entries of each fold, from an empty one
        self.parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
        # column l's rows are rows[first[l]:][:count[l]]
        self.first = np.zeros(size, np.intp)
        self.count = np.zeros(size, np.intp)
        self.rows = np.zeros(0, np.intp)

    @classmethod
    def pieces(cls, op: Branched, layout: Layout) -> list:
        """The pieces of one factor, as ``_fold_branches`` gives them, each
        matrix a ``_Columns`` that folds nothing yet.  Raises ValueError
        when a gate is not unitary to ``_unit_tolerance`` of its dimension:
        a reach that folds columns alone needs a unitary product."""
        chains = _ChainFold(op, layout)
        for gate in chains.gates.values():
            dim = gate.matrix.shape[0]
            if np.abs(gate.matrix.conj().T @ gate.matrix - np.eye(dim)).max() > _unit_tolerance(dim):
                raise ValueError(f"a folded gate chain holds a gate on {gate.names} that is not unitary")
        return [(ctl, chains.touched, cls(chains, steps)) for ctl, steps in chains.bodies]

    def spans(self, local: np.ndarray):
        """Fold the columns ``local`` not folded yet; then (first, count,
        rows): the rows of the entries of column ``local[i]`` are
        ``rows[first[i]:][:count[i]]``."""
        new = np.zeros_like(self.folded)
        new[local] = True
        new = np.flatnonzero(new & ~self.folded)
        if new.size:
            self.folded[new] = True
            row, col, val = self.chains.fold(self.steps, new)
            self.parts.append((row, col, val))
            counts = np.bincount(col, minlength=self.chains.size)[new]
            self.first[new] = self.rows.size + np.cumsum(counts) - counts
            self.count[new] = counts
            self.rows = np.concatenate([self.rows, row[np.argsort(col, kind="stable")]])
        return self.first[local], self.count[local], self.rows

    def matrix(self) -> Csr:
        """The folded columns' entries; every other column is empty."""
        row, col, val = (np.concatenate(a) for a in zip(*self.parts))
        order = np.argsort(row * self.chains.size + col)
        return _csr(row[order], col[order], val[order], self.chains.size)


def _factors(op: Op, layout: Layout, fold=_fold_branches) -> list[list[tuple]]:
    """An op tree as a product of factors, ``[0]`` acting first.  A factor
    is a list of pieces (controls, names, matrix): ``matrix`` acts on the
    registers ``names``, in its row-major order, where the control registers
    hold the values ``controls``.  The pieces of one factor have disjoint
    control slices, and the factor is the identity off them.

    A Branched whose bodies are all chains of at least two gates is folded
    into one factor by ``fold`` (``_fold_branches``, or ``_Columns.pieces``
    to fold on demand).  Otherwise the i-th ops of a Branched's bodies act
    on disjoint slices, so they make up one factor."""
    if isinstance(op, Composite):
        return [f for o in op.ops for f in _factors(o, layout, fold)]
    if isinstance(op, Branched):
        if all(_is_gate_chain(body) for _, body in op.branches):
            return [fold(op, layout)]
        per_key = []
        for key, body in op.branches:
            outer = dict(zip(op.controls, key))
            factors = _factors(body, layout, fold)
            per_key.append([[({**ctl, **outer}, nm, mat) for ctl, nm, mat in f] for f in factors])
        depth = max(map(len, per_key), default=0)
        return [[p for fs in per_key if i < len(fs) for p in fs[i]] for i in range(depth)]
    if isinstance(op, Gate):
        rows, cols = np.nonzero(op.matrix)
        return [[({}, op.names, _csr(rows, cols, op.matrix[rows, cols], op.matrix.shape[0]))]]
    raise TypeError(f"no sparsity pattern for {type(op).__name__}")


def _components(mat: Csr) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The connected components of the nonzero pattern of ``mat`` and of its
    adjoint: every nonzero links its row and its column.  Returns ``label``,
    each index's component named by its smallest index, and ``members``,
    ``start`` and ``size``: component c is ``members[start[c]:][:size[c]]``,
    in ascending order."""
    size = mat.indptr.size - 1
    rows, cols = mat.rows(), mat.indices
    label = np.arange(size)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    counts = np.bincount(label, minlength=size)
    return label, np.argsort(label, kind="stable"), np.cumsum(counts) - counts, counts


def _unit_tolerance(dim: int) -> float:
    """How far from the identity a product of unitaries on ``dim`` states,
    formed in floating point, may land."""
    return 1000 * np.finfo(float).eps * dim


def _view(idx: np.ndarray, size: int) -> tuple[int, int, int] | None:
    """(pre, k, post) when the shared group's ``idx`` (k, nb) is the view of
    ``size`` rows as (pre, k, post): the k-set of column i * post + p is
    rows (i, :, p).  None otherwise."""
    k, nb = idx.shape
    if k * nb != size:
        return None
    post = int(idx[1, 0]) if k > 1 else nb
    if post < 1 or nb % post:
        return None
    pre = nb // post
    rows = np.arange(size).reshape(pre, k, post).transpose(1, 0, 2).reshape(k, nb)
    return (pre, k, post) if np.array_equal(idx, rows) else None


@dataclass(frozen=True, eq=False)
class BlockFactor:
    """A ``size`` x ``size`` matrix as dense blocks on disjoint sets of
    indices, the identity on every index no block holds.  A group
    ``(idx, blocks)`` holds either one (k, k) block, shared by the k-sets in
    the columns of idx (k, nb), or one block per k-set, blocks (nb, k, k) on
    the rows of idx (nb, k).  ``views`` holds, for each group, the (pre, k,
    post) shape (``_view``) when it is a shared block on the view of the
    rows as (pre, k, post), and None otherwise."""

    size: int
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    views: tuple = field(init=False, repr=False)

    def __post_init__(self):
        views = tuple(
            _view(idx, self.size) if blocks.ndim == 2 else None for idx, blocks in self.groups
        )
        object.__setattr__(self, "views", views)

    def apply(self, x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """``self @ x`` in place for a C-contiguous complex (size, c) x; real
        blocks act on its float view, which halves the arithmetic.  ``work``
        is a complex buffer of at least 2 x.size elements, allocated when
        absent, so that a caller that passes one allocates nothing per step:
        a group on a view multiplies the (pre, k, post) view of x into it and
        copies the product back; any other group gathers its rows into its
        first half, multiplies them into its second and scatters them."""
        if not x.size:
            return x
        if work is None:
            work = np.empty(2 * x.size, complex)
        # each row one element, so a gather or scatter moves whole rows
        row = np.dtype((np.void, x.strides[0]))
        rows = x.view(row).reshape(-1)
        for (idx, blocks), view in zip(self.groups, self.views):
            if view is not None:
                on = x.view(blocks.dtype).reshape(view[0], view[1], -1)
                out = work[: x.size].view(blocks.dtype).reshape(on.shape)
                np.matmul(blocks, on, out=out)
                on[...] = out
                continue
            n = idx.size * (x.size // self.size)
            g, out = work[:n], work[x.size : x.size + n]
            # idx is in range; mode "clip" takes into out unbuffered
            np.take(rows, idx, out=g.view(row).reshape(idx.shape), mode="clip")
            g, y = (a.view(blocks.dtype).reshape(idx.shape + (-1,)) for a in (g, out))
            if blocks.ndim == 2:
                np.matmul(blocks, g.reshape(len(idx), -1), out=y.reshape(len(idx), -1))
            else:
                np.matmul(blocks, g, out=y)
            rows[idx] = out.view(row).reshape(idx.shape)
        return x

    def adjoint(self) -> "BlockFactor":
        """Each block's conjugate transpose, on the same indices."""
        flip = tuple((i, np.ascontiguousarray(b.conj().swapaxes(-1, -2))) for i, b in self.groups)
        return BlockFactor(self.size, flip)


def _group(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """One group of blocks of one size from ``parts`` of (idx (nb, k),
    distinct blocks (nc, k, k), the block of each k-set (nb,)).  Blocks
    whose imaginary part is 0 are made real, and blocks that are all equal
    are kept once."""
    idx = np.concatenate([p[0] for p in parts])
    stack = np.concatenate([p[1] for p in parts])
    first = np.cumsum([0] + [len(p[1]) for p in parts[:-1]])
    which = np.concatenate([p[2] + at for p, at in zip(parts, first)])
    if not stack.imag.any():
        stack = stack.real
    if (stack == stack[0]).all():
        return np.ascontiguousarray(idx.T), stack[0]
    return idx, stack[which]


class Support:
    """The smallest set S of flat indices of the registers ``names`` that
    holds the support of ``mask`` and is closed under the nonzero pattern of
    every factor of an op tree (``_factors``), and the op's factors
    restricted to it.

    ``names`` runs from the first register of the layout to the last one
    the op touches; the registers after them ride along as columns, and the
    support of ``mask`` (flat or layout-shaped) counts every value of them.
    S is the forward closure of the mask: the reach goes from a column to
    the rows of its entries.  A folded gate chain is folded on demand
    (``_Columns``), each column once, when the reach first meets it, so it
    forms the entries of S's columns alone; ``folded_columns`` and
    ``folded_entries`` count them.  Any other piece reaches the whole
    connected component of its pattern and of its adjoint (``_components``).

    No entry leads from a column in S to a row off it.  For a unitary
    factor that forces no entry from a column off S to a row in S either,
    which the adjoint on S needs, so that each factor is block-diagonal on
    S (+) S^c.  It is certified rather than folded: every gate of a folded
    chain must be unitary and every S row of a folded piece's S x S block of
    unit norm, each to ``_unit_tolerance`` of its dimension, and S must hold
    every component it meets whole; ValueError otherwise.
    ``row_norm_residual`` is the worst S row's distance from norm 1.

    ``chain`` holds the S x S blocks as ``BlockFactor``s, one dense block
    per component of a piece in each of its fibres in S, ``[0]`` acting
    first.  The reach follows every nonzero entry as a link, whatever its
    size, so no sum of entries can cancel one out; the only entries ever
    dropped are the rounding-level ones the fold drops from the gates it
    multiplies (``_kept``).
    """

    def __init__(self, op: Op, layout: Layout, mask: np.ndarray):
        factors = [
            [
                (ctl, names, mat, None if isinstance(mat, _Columns) else _components(mat))
                for ctl, names, mat in f
            ]
            for f in _factors(op, layout, _Columns.pieces)
        ]
        touched = {
            layout.axis(nm) for f in factors for ctl, names, *_ in f for nm in (*ctl, *names)
        }
        self.names = layout.names[: max(touched, default=0) + 1]
        self.dims = layout.dims[: len(self.names)]
        self._axis = {nm: a for a, nm in enumerate(self.names)}
        self._strides = [prod(self.dims[a + 1 :]) for a in range(len(self.dims))]
        self._offsets: dict[tuple[str, ...], np.ndarray] = {}  # ``_local``'s, by names
        inside = np.zeros(prod(self.dims), bool)
        frontier = np.flatnonzero(mask.reshape(inside.size, -1).any(axis=1))
        inside[frontier] = True
        while frontier.size:
            reached = np.zeros_like(inside)
            digits = self._digits(frontier)
            for f in factors:
                for ctl, names, mat, comps in f:
                    local, base, offset = self._fibres(ctl, names, frontier, digits)
                    if comps is None:
                        # the rows of each column's entries
                        first, counts, members = mat.spans(local)
                    else:
                        # every member of the component of each row, in its fibre
                        label, members, start, size = comps
                        first, counts = start[label[local]], size[label[local]]
                    pos = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
                    reached[np.repeat(base, counts) + offset[members[pos]]] = True
            frontier = np.flatnonzero(reached & ~inside)
            inside |= reached
        self.index = np.flatnonzero(inside)
        self.folded_columns = self.folded_entries = 0
        self.row_norm_residual = 0.0
        digits = self._digits(self.index)
        chain = []
        for f in factors:
            pieces = []
            for ctl, names, mat, comps in f:
                folded = comps is None
                if folded:
                    self.folded_columns += int(mat.folded.sum())
                    mat = mat.matrix()
                    self.folded_entries += mat.data.size
                    comps = _components(mat)
                pieces.append((ctl, names, mat, comps, folded))
            chain.append(self._restrict(pieces, digits))
        self.chain = tuple(chain)

    def _digit(self, s: np.ndarray, name: str) -> np.ndarray:
        a = self._axis[name]
        return s // self._strides[a] % self.dims[a]

    def _digits(self, s: np.ndarray) -> dict[str, np.ndarray]:
        """The value of every register in the flat indices ``s``."""
        return {nm: self._digit(s, nm) for nm in self.names}

    def _select(self, ctl: dict, s: np.ndarray, digits=None) -> np.ndarray:
        """Positions in ``s`` whose control registers hold the values ``ctl``;
        ``digits`` is ``_digits(s)``, computed when absent."""
        digits = self._digits(s) if digits is None else digits
        keep = np.ones(s.size, bool)
        for name, value in ctl.items():
            keep &= digits[name] == value
        return np.flatnonzero(keep)

    def _local(self, s: np.ndarray, names: tuple[str, ...], digits=None):
        """The flat indices ``s`` split on the registers ``names``: each
        one's local index (row-major in ``names``) and its flat index with
        those registers at 0, and the flat offset of every local index;
        ``digits`` maps each of ``names`` to its values in ``s``."""
        digits = self._digits(s) if digits is None else digits
        local_dims = [self.dims[self._axis[nm]] for nm in names]
        local = np.ravel_multi_index([digits[nm] for nm in names], local_dims)
        if names not in self._offsets:
            strides = [self._strides[self._axis[nm]] for nm in names]
            outer = reduce(np.add.outer, [st * np.arange(dm) for st, dm in zip(strides, local_dims)])
            self._offsets[names] = outer.ravel()
        offset = self._offsets[names]
        return local, s - offset[local], offset

    def _fibres(self, ctl: dict, names: tuple[str, ...], s: np.ndarray, digits: dict):
        """``_local`` of the indices in ``s`` that ``_select`` keeps."""
        at = self._select(ctl, s, digits)
        return self._local(s[at], names, {nm: digits[nm][at] for nm in names})

    def _restrict(self, factor, digits=None) -> BlockFactor:
        """The factor's S x S block: one dense block per component of a
        piece in each of its fibres in S, grouped by size.  ``factor`` holds
        pieces (controls, names, matrix, ``_components(matrix)``, certify);
        the S rows of a piece to certify must have unit norm in its blocks,
        and ``row_norm_residual`` keeps the worst.  ``digits`` is
        ``_digits(index)``, computed when absent."""
        digits = self._digits(self.index) if digits is None else digits
        by_size: dict[int, list] = {}
        for ctl, names, mat, (label, members, start, size), certify in factor:
            local, base, offset = self._fibres(ctl, names, self.index, digits)
            # one k-set per component in each fibre, at its smallest index
            anchor = local == label[local]
            roots, base = local[anchor], base[anchor]
            if size[roots].sum() != local.size:
                raise ValueError("S holds part of a component of a factor")
            rank = np.empty_like(members)  # each index's place in its component
            rank[members] = np.arange(members.size) - start[label[members]]
            rows = mat.rows()
            owner = label[rows]
            slot = np.full(label.size, -1)  # a component's place among the met k-components
            for k in np.flatnonzero(np.bincount(size[roots])):
                here = size[roots] == k
                comps = np.flatnonzero(np.bincount(roots[here], minlength=label.size))
                slot[comps] = np.arange(comps.size)
                span = members[start[roots[here]][:, None] + np.arange(k)]
                flat = base[here][:, None] + offset[span]
                idx = np.searchsorted(self.index, flat)
                if not np.array_equal(self.index[np.minimum(idx, self.index.size - 1)], flat):
                    raise ValueError("S holds part of a component of a factor")
                e = (slot[owner] >= 0) & (size[owner] == k)
                blocks = np.zeros((comps.size, k, k), mat.data.dtype)
                blocks[slot[owner[e]], rank[rows[e]], rank[mat.indices[e]]] = mat.data[e]
                if certify:
                    residual = np.abs((np.abs(blocks) ** 2).sum(axis=2) - 1).max()
                    if residual > _unit_tolerance(k):
                        raise ValueError(
                            f"an S row of a folded factor has norm off 1 by {residual:.2e}"
                        )
                    self.row_norm_residual = max(self.row_norm_residual, float(residual))
                by_size.setdefault(int(k), []).append((idx, blocks, slot[roots[here]]))
        groups = tuple(_group(parts) for _, parts in sorted(by_size.items()))
        return BlockFactor(self.index.size, groups)

    def digits(self, name: str) -> np.ndarray:
        """The value of the register ``name`` in each S row."""
        return self._digit(self.index, name)

    def rows(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        """The S rows of a layout-shaped array viewed as (``names``, rest)."""
        return layout.block(arr, self.names)[0, self.index]

    def scatter(self, x: np.ndarray, layout: Layout, batch: tuple[int, ...] = ()) -> np.ndarray:
        """The layout-shaped array (trailing ``batch`` axes) whose S rows are
        ``x`` and which is 0 off S: the inverse of ``rows``."""
        # unlike zeros_like, np.zeros leaves the pages no S row lands on
        # unwritten, so they take no memory
        out = np.zeros(layout.dims + batch, dtype=complex)
        layout.block(out, self.names)[0, self.index] = x
        return out


class RestrictedProduct(Op):
    """A product run on the support S of ``Support``: ``run`` takes the S
    rows of a state, (|S|, rest), through ``steps`` (a chain of
    ``BlockFactor``s or an (|S|, rest) diagonal each, ``[0]`` first).
    ``apply`` gathers the S rows of a layout-shaped state, runs them and
    scatters them back; it is defined on states supported on S, and one with
    a nonzero amplitude off S raises ValueError."""

    def __init__(self, support: Support, steps: tuple):
        self.support = support
        self.steps = steps

    def run(self, x: np.ndarray) -> np.ndarray:
        """The product applied in place to the C-contiguous complex S rows
        ``x`` (|S|, rest), the rest axis a multiple of the diagonals'.  The
        block factors share one workspace, allocated once, and diagonals
        multiply a view, so no step allocates."""
        work = np.empty(2 * x.size, complex)
        for step in self.steps:
            if isinstance(step, np.ndarray):
                view = x.reshape(step.shape + (-1,))
                view *= step[..., None]
            else:
                for factor in step:
                    factor.apply(x, work)
        return x

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        arr = np.asarray(arr, dtype=complex)
        x = self.support.rows(arr, layout)
        if np.count_nonzero(arr) > np.count_nonzero(x):
            raise ValueError("state has nonzero amplitudes off the support S")
        return self.support.scatter(self.run(x), layout, arr.shape[len(layout.dims) :])


def to_matrix(op: Op, layout: Layout) -> np.ndarray:
    """Materialize (only sensible for small layouts)."""
    n = layout.size
    basis = np.eye(n, dtype=complex).reshape(layout.dims + (n,))
    out = op.apply(basis, layout)
    return out.reshape(n, n)

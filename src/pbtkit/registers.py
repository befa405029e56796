"""Register-structured linear operators applied without materializing them.

A Layout names an ordered list of registers; state vectors are ndarrays with
one axis per register (trailing axes are treated as batch).  Operators are
small dense gates bound to register names, composed into sequences and
branch-selected maps.  Branch bodies act on rank-preserving slices, so a gate
inside a deeply controlled composite only ever touches the small sub-array it
acts on; nothing here ever builds the full-space matrix unless asked to.
``compile`` lowers an op tree once into an equivalent op that is cheaper to
apply many times; the tree stays the definition the lowered op is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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


def _product(mat, x: np.ndarray) -> np.ndarray:
    """mat @ x for a complex stack x; a real mat acts on the real view of x,
    which halves the arithmetic."""
    if np.iscomplexobj(mat):
        return mat @ x
    return (mat @ np.ascontiguousarray(x, dtype=complex).view(float)).view(complex)


class _MatmulGate(Op):
    """Gate on registers contiguous in the layout, applied as one matmul on
    the (before, registers, after) view of the state."""

    def __init__(self, first: str, matrix: np.ndarray):
        self.first = first
        self.matrix = matrix

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        pre = prod(arr.shape[: layout.axis(self.first)])
        out = _product(self.matrix, arr.reshape(pre, self.matrix.shape[0], -1))
        return out.reshape(arr.shape)

    def adjoint(self) -> "_MatmulGate":
        return _MatmulGate(self.first, self.matrix.conj().T)


class _SparseBranched(Op):
    """Branched op whose bodies are folded into one sparse matrix per key on
    the registers they touch (in layout order); the state is viewed as
    (controls, touched, everything else)."""

    def __init__(self, controls: tuple[str, ...], touched: tuple[str, ...], blocks: dict):
        self.controls = controls
        self.touched = touched
        self.blocks = blocks

    def apply(self, arr: np.ndarray, layout: Layout) -> np.ndarray:
        front = [layout.axis(nm) for nm in self.controls + self.touched]
        perm = front + [a for a in range(arr.ndim) if a not in front]
        moved = arr.transpose(perm)
        keys = moved.shape[: len(self.controls)]
        view = moved.reshape(keys + (prod(moved.shape[len(keys) : len(front)]), -1))
        out = np.empty(view.shape, dtype=complex)
        for key in np.ndindex(*keys):
            mat = self.blocks.get(key)
            out[key] = view[key] if mat is None else _product(mat, view[key])
        return out.reshape(moved.shape).transpose(np.argsort(perm))

    def adjoint(self) -> "_SparseBranched":
        blocks = {k: m.conj().T.tocsr() for k, m in self.blocks.items()}
        return _SparseBranched(self.controls, self.touched, blocks)


def compile(op: Op, layout: Layout) -> Op:
    """Lower an op tree to an op with the same action on ``layout``-shaped
    arrays that applies faster; the tree itself stays the definition.

    - A Branched whose bodies are all composites of at least two gates
      becomes one sparse matrix per branch key on the union of registers
      the bodies touch.
    - A gate on registers contiguous in the layout becomes a matmul on a
      reshaped view.
    - A branch body that is a single gate is left as it is; composites and
      other branch bodies are lowered recursively.
    """

    def lower(op: Op) -> Op:
        if isinstance(op, Gate):
            return _lower_gate(op, layout)
        if isinstance(op, Composite):
            return Composite(tuple(lower(o) for o in op.ops))
        if isinstance(op, Branched):
            bodies = [body for _, body in op.branches]
            if all(_is_gate_chain(body) for body in bodies):
                return _fold_branches(op, layout)
            return Branched(
                op.controls,
                tuple(
                    (key, body if isinstance(body, Gate) else lower(body))
                    for key, body in op.branches
                ),
            )
        return op

    return lower(op)


def _is_gate_chain(op: Op) -> bool:
    return (
        isinstance(op, Composite)
        and len(op.ops) >= 2
        and all(isinstance(o, Gate) for o in op.ops)
    )


def _lower_gate(gate: Gate, layout: Layout) -> Op:
    axes = [layout.axis(nm) for nm in gate.names]
    if sorted(axes) != list(range(min(axes), min(axes) + len(axes))):
        return gate
    # reorder the matrix's tensor factors into layout order
    dims = [layout.dim(nm) for nm in gate.names]
    order = list(np.argsort(axes))
    mat = gate.matrix.reshape(dims + dims).transpose(order + [len(dims) + o for o in order])
    size = gate.matrix.shape[0]
    mat = np.ascontiguousarray(mat.reshape(size, size))
    return _MatmulGate(layout.names[min(axes)], mat if mat.imag.any() else mat.real)


def _fold_branches(op: Branched, layout: Layout) -> _SparseBranched:
    """Multiply each body's gates, each embedded as a sparse matrix on the
    touched registers, into one CSR matrix per branch key."""
    import scipy.sparse as sparse  # only folding needs it; keeps `import pbtkit` light

    names = {nm for _, body in op.branches for gate in body.ops for nm in gate.names}
    if names & set(op.controls):
        raise ValueError("branch bodies must not touch their control registers")
    touched = tuple(nm for nm in layout.names if nm in names)
    dims = tuple(layout.dim(nm) for nm in touched)
    size = prod(dims)
    index = np.arange(size).reshape(dims)
    blocks = {}
    for key, body in op.branches:
        acc = sparse.identity(size, dtype=complex, format="csr")
        for gate in body.ops:
            axes = [touched.index(nm) for nm in gate.names]
            # flat touched index of (gate state, state of the other registers)
            flat = np.moveaxis(index, axes, range(len(axes))).reshape(gate.matrix.shape[0], -1)
            # entries at rounding level of the largest one are residue of how
            # the gate was built; dropping them keeps the folded product sparse
            mag = np.abs(gate.matrix)
            rows, cols = np.nonzero(mag > np.finfo(float).eps * mag.max())
            factor = sparse.csr_matrix(
                (
                    np.repeat(gate.matrix[rows, cols], flat.shape[1]),
                    (flat[rows].ravel(), flat[cols].ravel()),
                ),
                shape=(size, size),
            )
            acc = factor @ acc
        acc.eliminate_zeros()
        blocks[tuple(key)] = acc if acc.data.imag.any() else acc.real
    return _SparseBranched(op.controls, touched, blocks)


def to_matrix(op: Op, layout: Layout) -> np.ndarray:
    """Materialize (only sensible for small layouts)."""
    n = layout.size
    basis = np.eye(n, dtype=complex).reshape(layout.dims + (n,))
    out = op.apply(basis, layout)
    return out.reshape(n, n)


def apply_to_columns(op: Op, layout: Layout, cols: np.ndarray) -> np.ndarray:
    """Apply to a (layout.size x k) stack of column vectors at once."""
    arr = np.asarray(cols, dtype=complex).reshape(layout.dims + (cols.shape[1],))
    out = op.apply(arr, layout)
    return out.reshape(layout.size, cols.shape[1])

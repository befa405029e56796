"""The amplified product's support and its restricted S x S chain against
the op tree they are read from."""

import subprocess
import sys
import tracemalloc
from functools import cache
from math import pi, prod
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

import pbtkit
from pbtkit.amplify import amplified_V, plan
from pbtkit.registers import (
    BlockFactor,
    Branched,
    Composite,
    Gate,
    Layout,
    Op,
    Register,
    RestrictedProduct,
    Support,
    _ChainFold,
    _components,
    _factors,
    _fold_branches,
    _is_gate_chain,
    _unit_tolerance,
    to_matrix,
)
from pbtkit.simulate import build_pipeline

RNG = np.random.default_rng(31)
EPS = np.finfo(float).eps


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def random_batch(layout, columns):
    shape = layout.dims + (columns,)
    batch = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    return batch / np.linalg.norm(batch.reshape(layout.size, columns), axis=0)


@cache
def bare_pipeline(variant, n, d):
    return build_pipeline(n, d, variant, with_bob=False, with_ref=False)


@pytest.fixture(scope="module", params=[("honest", 3, 2), ("compressed", 4, 3)])
def pipe(request):
    return bare_pipeline(*request.param)


class Diagonal(Op):
    """Diagonal over the whole layout, from its flat values."""

    def __init__(self, values):
        self.values = values

    def apply(self, arr, layout):
        return arr * self.values.reshape(layout.dims + (1,) * (arr.ndim - len(layout.dims)))


def tree_product(v, plan_):
    """Oracle: the amplified product on the whole layout, ``[0]`` acting
    first: v and its adjoint as op trees, the reflections as diagonals."""
    start, end = (mask.astype(bool) for mask in (plan_.start_projector, plan_.end_projector))

    def reflection(mask, phase, sign=1.0):
        return Diagonal(np.where(mask, sign * np.exp(1j * phase), sign * np.exp(-1j * phase)))

    m = plan_.m
    lead = reflection(end, plan_.phases[0], (-1.0) ** ((m - 1) // 2))
    body = [v, reflection(end, pi / 2), v.adjoint(), reflection(start, pi / 2)]
    return Composite(tuple(body * ((m - 1) // 2) + [v, lead]))


def test_compiled_amplified_product_matches_tree(pipe):
    # generic columns spread over all of S, not only the start subspace
    layout = pipe.layout
    batch = on_support(pipe, random_batch(layout, 2), inside=True)
    tree = tree_product(pipe.naimark.v_op, pipe.plan)
    diff = tree.apply(batch, layout) - pipe.v_amp.apply(batch, layout)
    assert np.abs(diff).max() <= 1000 * EPS * layout.size


def test_amplified_product_shares_v_and_diagonals(pipe):
    # one V chain, one V† chain, three diagonals, shared across phases
    steps = pipe.v_amp.steps
    assert len(steps) == 2 * pipe.plan.m
    chains, diagonals = steps[0::2], steps[1::2]
    assert all(isinstance(step, np.ndarray) for step in diagonals)
    assert len({id(step) for step in diagonals}) <= 3
    v_chain, vdag_chain = chains[:2]
    assert v_chain is pipe.v_amp.support.chain
    assert {id(step) for step in chains} == {id(v_chain), id(vdag_chain)}
    for mat, adj in zip(reversed(v_chain), vdag_chain):
        assert len(mat.groups) == len(adj.groups)
        for (idx, blocks), (adj_idx, adj_blocks) in zip(mat.groups, adj.groups):
            assert np.array_equal(idx, adj_idx)
            assert np.array_equal(blocks.conj().swapaxes(-1, -2), adj_blocks)


def test_build_pipeline_copies_no_gate(monkeypatch):
    calls = []
    adjoint = Gate.adjoint

    def counted(self):
        calls.append(self.names)
        return adjoint(self)

    monkeypatch.setattr(Gate, "adjoint", counted)
    build_pipeline(6, 2, "compressed")
    assert calls == []


SUPPORT_SIZES = {
    ("honest", 3, 2): (6144, 147456),
    ("compressed", 6, 2): (640, 9000),
    ("compressed", 4, 3): (486, 1944),
}


@pytest.mark.parametrize("point", SUPPORT_SIZES)
def test_support_size(point):
    support = bare_pipeline(*point).v_amp.support
    assert (support.index.size, prod(support.dims)) == SUPPORT_SIZES[point]


def test_support_holds_start_and_is_closed(pipe):
    layout, support = pipe.layout, pipe.v_amp.support
    inside = support_mask(pipe)
    start = pipe.plan.start_projector.reshape(layout.dims)
    assert not (layout.block(start, support.names)[0].any(axis=1) & ~inside).any()
    # no nonzero entry of a factor or of its adjoint leaves S
    for factor in _factors(pipe.naimark.v_op, layout):
        for ctl, names, mat in factor:
            rows = support.index[support._select(ctl, support.index)]
            size = mat.indptr.size - 1
            csr = sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=(size, size))
            for m in (csr, csr.T.tocsr()):
                assert inside[entry_columns(support, m, rows, names)].all()


def entry_columns(support, mat, rows, names):
    """The flat index of every nonzero entry of the piece ``mat`` on
    ``names`` in the flat ``rows``: row s holds entries at these indices."""
    local, base, offset = support._local(rows, names)
    counts = np.diff(mat.indptr)[local]
    first = mat.indptr[local] - np.cumsum(counts) + counts
    pos = np.arange(counts.sum()) + np.repeat(first, counts)
    return np.repeat(base, counts) + offset[mat.indices[pos]]


def support_mask(pipe):
    """S as a mask over the flat indices of the registers it spans."""
    support = pipe.v_amp.support
    mask = np.zeros(prod(support.dims), bool)
    mask[support.index] = True
    return mask


def on_support(pipe, batch, inside):
    """``batch`` with the amplitudes off S (``inside``) or on S zeroed."""
    names = pipe.v_amp.support.names
    pipe.layout.block(batch, names)[0, support_mask(pipe) != inside] = 0
    return batch


def test_restricted_product_rejects_input_off_support(pipe):
    batch = on_support(pipe, random_batch(pipe.layout, 1), inside=True)
    off = on_support(pipe, random_batch(pipe.layout, 1), inside=False)
    # one amplitude off S, however small, is rejected
    flat = np.flatnonzero(off)[0]
    batch.reshape(-1)[flat] = 1e-300
    with pytest.raises(ValueError, match="off the support"):
        pipe.v_amp.apply(batch, pipe.layout)


def test_restricted_product_takes_an_empty_batch(pipe):
    empty = np.zeros(pipe.layout.dims + (0,), dtype=complex)
    assert pipe.v_amp.apply(empty, pipe.layout).shape == empty.shape


def test_single_gate_bodies_left_untouched():
    pipe = build_pipeline(4, 3, "compressed", with_bob=False, with_ref=False)
    tree = pipe.naimark.uc_op
    (factor,) = _factors(tree, pipe.layout)
    assert len(factor) == len(tree.branches)
    for (key, body), (ctl, names, mat) in zip(tree.branches, factor):
        assert isinstance(body, Gate)
        assert ctl == dict(zip(tree.controls, key)) and names == body.names
        # the body's own matrix: not folded, no rounding-level entry dropped
        csr = sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=body.matrix.shape)
        assert np.array_equal(csr.toarray(), body.matrix)
        assert mat.data.size == np.count_nonzero(body.matrix)


def mixed_tree():
    """Contiguous registers named out of layout order, a non-contiguous gate,
    complex folded bodies, an absent branch key and a control register after
    the touched ones."""
    layout = Layout(
        [Register("a", 2), Register("t1", 3), Register("s", 2), Register("t2", 2), Register("c", 3)]
    )

    def chain():
        return Composite(
            (Gate(("t2", "t1"), random_unitary(6)), Gate(("t1",), random_unitary(3)))
        )

    tree = Composite(
        (
            Gate(("s", "t1"), random_unitary(6)),
            Gate(("a",), random_unitary(2)),
            Gate(("t2", "a"), random_unitary(4)),
            Branched(("c",), (((0,), chain()), ((2,), chain()))),
            Branched(("a",), (((1,), Composite((Gate(("c",), random_unitary(3)),))),)),
        )
    )
    return layout, tree


def test_compile_matches_dense_on_mixed_tree():
    layout, tree = mixed_tree()
    # with a full start mask S is every index, and the chain the whole tree
    support = Support(tree, layout, np.ones(layout.size, bool))
    assert support.names == layout.names and support.index.size == layout.size
    dense = to_matrix(tree, layout)
    tol = 1000 * EPS * layout.size
    product = np.eye(layout.size)
    for mat in support.chain:
        product = scattered(mat) @ product
    assert np.abs(product - dense).max() <= tol
    adjoint = np.eye(layout.size)
    for mat in reversed(support.chain):
        adjoint = scattered(mat.adjoint()) @ adjoint
    assert np.abs(adjoint - dense.conj().T).max() <= tol


def block_unitary(*sizes):
    out = np.zeros((sum(sizes),) * 2, dtype=complex)
    at = 0
    for k in sizes:
        out[at : at + k, at : at + k] = random_unitary(k)
        at += k
    return out


def block_tree():
    """Block-diagonal gates keep S a proper subset: the gate on c never
    mixes c = 0 into c > 0, and the trailing register b rides along."""
    layout = Layout(
        [Register("a", 2), Register("t1", 3), Register("s", 2), Register("t2", 2)]
        + [Register("c", 3), Register("b", 2)]
    )

    def chain():
        return Composite(
            (Gate(("t2", "t1"), block_unitary(2, 4)), Gate(("t1",), block_unitary(1, 2)))
        )

    tree = Composite(
        (
            Gate(("s", "t1"), block_unitary(3, 3)),
            Gate(("a",), random_unitary(2)),
            Gate(("t2", "a"), block_unitary(2, 2)),
            Branched(("c",), (((0,), chain()), ((2,), chain()))),
            Branched(("a",), (((1,), Composite((Gate(("c",), block_unitary(1, 2)),))),)),
        )
    )
    start = np.zeros(layout.dims, bool)
    start[:, 0, :, 0, 0, :] = True
    end = np.zeros(layout.dims, bool)
    end[:, :, 0] = True
    return layout, tree, plan(3.0, 1, start.ravel(), end.ravel())


def test_restricted_product_matches_dense_on_mixed_tree():
    layout, tree, plan_ = block_tree()
    amplified = amplified_V(tree, plan_, layout)
    support = amplified.support
    assert 0 < support.index.size < prod(support.dims)

    # the layout's basis columns on S: the registers after S's ride along
    inside = np.zeros(prod(support.dims), bool)
    inside[support.index] = True
    cols = np.flatnonzero(np.repeat(inside, layout.size // inside.size))
    basis = np.eye(layout.size)[:, cols].reshape(layout.dims + (cols.size,))
    got = amplified.apply(basis, layout).reshape(layout.size, cols.size)
    dense = to_matrix(tree_product(tree, plan_), layout)
    assert np.abs(got - dense[:, cols]).max() <= 1000 * EPS * layout.size


def scattered(factor):
    """A ``BlockFactor`` as a matrix: its blocks scattered onto the identity."""
    out = np.eye(factor.size, dtype=complex)
    for idx, blocks in factor.groups:
        if blocks.ndim == 2:
            idx, blocks = idx.T, np.broadcast_to(blocks, (idx.shape[1],) + blocks.shape)
        out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def chain_case(case):
    """(layout, op tree, its Support) for the mixed trees and compressed (4,3)."""
    if case == "mixed":
        layout, tree = mixed_tree()
        return layout, tree, Support(tree, layout, np.ones(layout.size, bool))
    if case == "block":
        layout, tree, plan_ = block_tree()
        return layout, tree, amplified_V(tree, plan_, layout).support
    pipe = bare_pipeline("compressed", 4, 3)
    return pipe.layout, pipe.naimark.v_op, pipe.v_amp.support


@pytest.mark.parametrize("case", ["mixed", "block", "compressed43"])
def test_chain_blocks_are_the_dense_factor_blocks(case):
    # each factor's blocks, scattered to a matrix, are the S x S block of the
    # factor's op: exactly for a gate or an unfolded Branched, to rounding
    # for a folded gate chain, whose product is formed in another order
    layout, tree, support = chain_case(case)
    assert len(support.chain) == len(tree.ops)
    rows = support.index * (layout.size // prod(support.dims))
    for op, factor in zip(tree.ops, support.chain):
        dense = to_matrix(op, layout)[np.ix_(rows, rows)]
        got = scattered(factor)
        if isinstance(op, Branched) and all(_is_gate_chain(body) for _, body in op.branches):
            assert np.abs(got - dense).max() <= 1000 * EPS * layout.size
        else:
            assert np.array_equal(got, dense)
        assert np.array_equal(scattered(factor.adjoint()), got.conj().T)
        if case == "compressed43":
            assert all(blocks.dtype == np.float64 for _, blocks in factor.groups)


def test_import_leaves_scipy_out():
    src = str(Path(pbtkit.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pbtkit; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "4", "--d", "3", "--engine", "amplified-V"],
        ["simulate", "--n", "6", "--d", "2", "--engine", "dense-W"],
        ["export", "kraus", "--n", "4", "--d", "2", "K.mat"],
        ["fidelity", "--d", "2", "--n", "2..5"],
        ["simulate", "--n", "3", "--d", "2", "--engine", "amplified-V", "--variant", "honest"],
    ],
)
def test_commands_leave_scipy_out(argv, tmp_path):
    # no command loads scipy, the honest run's gate-chain fold included
    src = str(Path(pbtkit.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from pbtkit.cli import main; "
        "status = main(sys.argv[2:]); print(status, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src, *argv],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
    )
    assert out.stdout.splitlines()[-1] == "0 False"


def scipy_fold(op, layout):
    """Reference for ``_fold_branches``: each body's gates embedded as
    scipy.sparse matrices on the touched registers and multiplied, with the
    same rounding-level drop per gate."""
    names = {nm for _, body in op.branches for gate in body.ops for nm in gate.names}
    touched = tuple(nm for nm in layout.names if nm in names)
    dims = tuple(layout.dim(nm) for nm in touched)
    size = prod(dims)
    index = np.arange(size).reshape(dims)
    pieces = []
    for key, body in op.branches:
        acc = sparse.identity(size, dtype=complex, format="csr")
        for gate in body.ops:
            axes = [touched.index(nm) for nm in gate.names]
            flat = np.moveaxis(index, axes, range(len(axes))).reshape(gate.matrix.shape[0], -1)
            mag = np.abs(gate.matrix)
            rows, cols = np.nonzero(mag > EPS * mag.max())
            factor = sparse.csr_matrix(
                (
                    np.repeat(gate.matrix[rows, cols], flat.shape[1]),
                    (flat[rows].ravel(), flat[cols].ravel()),
                ),
                shape=(size, size),
            )
            acc = factor @ acc
        acc.eliminate_zeros()
        data = acc.data if acc.data.imag.any() else acc.data.real
        csr = sparse.csr_matrix((data, acc.indices, acc.indptr), acc.shape)
        pieces.append((dict(zip(op.controls, key)), touched, csr))
    return pieces


def folded_branches(op):
    """Every Branched of the tree that ``_factors`` folds."""
    if isinstance(op, Composite):
        for o in op.ops:
            yield from folded_branches(o)
    elif isinstance(op, Branched):
        if all(_is_gate_chain(body) for _, body in op.branches):
            yield op
        else:
            for _, body in op.branches:
                yield from folded_branches(body)


def fold_case(case):
    if case == "mixed":
        return mixed_tree()
    if case == "block":
        return block_tree()[:2]
    pipe = bare_pipeline("honest", 3, 2)
    return pipe.layout, pipe.naimark.v_op


@pytest.mark.parametrize("case", ["honest32", "mixed", "block"])
def test_fold_matches_scipy_product(case):
    layout, tree = fold_case(case)
    branched = list(folded_branches(tree))
    assert branched
    for op in branched:
        got, want = _fold_branches(op, layout), scipy_fold(op, layout)
        assert len(got) == len(want)
        for (ctl, names, mat), (ref_ctl, ref_names, ref) in zip(got, want):
            assert (ctl, names) == (ref_ctl, ref_names)
            assert mat.indptr.dtype == mat.indices.dtype == np.int32
            assert mat.data.dtype == ref.data.dtype
            assert np.array_equal(mat.indptr, ref.indptr)
            # the same entries, each stored once, row by row
            size = mat.indptr.size - 1
            key = mat.rows().astype(np.int64) * size + mat.indices
            ref_rows = np.repeat(np.arange(size, dtype=np.int64), np.diff(ref.indptr))
            ref_key = ref_rows * size + ref.indices
            assert np.unique(key).size == key.size
            assert np.array_equal(np.sort(key), np.sort(ref_key))
            diff = mat.data[np.argsort(key)] - ref.data[np.argsort(ref_key)]
            assert np.abs(diff).max(initial=0) <= 8 * EPS * np.abs(ref.data).max()


def fold_chain(*gates, dim):
    """The one piece ``_fold_branches`` makes of a one-key Branched whose
    body is ``gates`` on a register of ``dim`` states, as a dense matrix and
    its stored entries."""
    layout = Layout([Register("c", 2), Register("t", dim)])
    op = Branched(("c",), (((1,), Composite(tuple(Gate(("t",), g) for g in gates))),))
    ((ctl, names, mat),) = _fold_branches(op, layout)
    assert (ctl, names) == ({"c": 1}, ("t",))
    rows, cols = mat.rows(), mat.indices
    dense = np.zeros((dim, dim), mat.data.dtype)
    dense[rows, cols] = mat.data
    return dense, set(zip(rows.tolist(), cols.tolist()))


def test_fold_drops_cancelled_paths():
    # H then H: the two paths to each off-diagonal entry cancel exactly
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    dense, pattern = fold_chain(h, h, dim=2)
    assert pattern == {(0, 0), (1, 1)}
    assert np.abs(dense - np.eye(2)).max() <= 2 * EPS


def test_fold_keeps_rounding_level_entries_out():
    gate = np.array([[1, 1e-18], [0, 1]])
    dense, pattern = fold_chain(gate, np.eye(2), dim=2)
    assert pattern == {(0, 0), (1, 1)}
    assert np.array_equal(dense, np.eye(2))


def test_fold_ends_paths_at_an_empty_column():
    # the first gate has one entry per column (a relabel) and nothing in
    # column 2, the second spreads and has nothing in column 1
    relabel = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    spread = np.array([[1, 0, 2], [3, 0, 4], [5, 0, 6]])
    dense, pattern = fold_chain(relabel, spread, dim=3)
    assert pattern == {(0, 1), (1, 1), (2, 1)}
    assert np.array_equal(dense, spread @ relabel)


def full_fold_chain(support, layout, tree):
    """Oracle: the chain restricted to S from the full ``_factors`` fold,
    every column of every gate chain folded."""
    return tuple(
        support._restrict([(ctl, names, mat, _components(mat), False) for ctl, names, mat in f])
        for f in _factors(tree, layout)
    )


@pytest.mark.parametrize("case", ["honest32", "block"])
def test_lazy_chain_is_the_full_fold_chain_bit_for_bit(case):
    if case == "block":
        layout, tree, plan_ = block_tree()
        support = amplified_V(tree, plan_, layout).support
    else:
        pipe = bare_pipeline("honest", 3, 2)
        layout, tree, support = pipe.layout, pipe.naimark.v_op, pipe.v_amp.support
    want = full_fold_chain(support, layout, tree)
    assert len(support.chain) == len(want)
    for got, ref in zip(support.chain, want):
        assert got.views == ref.views and len(got.groups) == len(ref.groups)
        for (idx, blocks), (ref_idx, ref_blocks) in zip(got.groups, ref.groups):
            assert np.array_equal(idx, ref_idx)
            assert blocks.dtype == ref_blocks.dtype and blocks.tobytes() == ref_blocks.tobytes()
    if case == "honest32":
        # the folds formed S's 4,096 columns, not the 16 keys' 73,728
        assert (support.folded_columns, support.folded_entries) == (4096, 78400)


def one_key_chain(*gates):
    layout = Layout([Register("c", 2), Register("t", 3)])
    body = Composite(tuple(Gate(("t",), g) for g in gates))
    return layout, Branched(("c",), (((0,), body),))


def test_support_rejects_a_folded_chain_with_a_gate_that_is_not_unitary():
    layout, tree = one_key_chain(random_unitary(3), 1.001 * random_unitary(3))
    with pytest.raises(ValueError, match="not unitary"):
        Support(tree, layout, np.ones(layout.size, bool))
    # the same chain of unitaries passes
    layout, tree = one_key_chain(random_unitary(3), random_unitary(3))
    assert Support(tree, layout, np.ones(layout.size, bool)).index.size == layout.size


def test_support_rejects_a_reach_that_skips_a_column(monkeypatch):
    layout, tree, plan_ = block_tree()
    start = plan_.start_projector.reshape(layout.dims)
    Support(tree, layout, start)
    fold = _ChainFold.fold

    def skipping(self, steps, cols):
        # the last column asked for is left empty, as if never folded
        row, col, val = fold(self, steps, cols)
        keep = col != cols[-1]
        return row[keep], col[keep], val[keep]

    monkeypatch.setattr(_ChainFold, "fold", skipping)
    with pytest.raises(ValueError, match="S row|part of a component"):
        Support(tree, layout, start)


def test_support_records_its_row_norm_residual():
    support = bare_pipeline("honest", 3, 2).v_amp.support
    # every S row of the folded factor's blocks keeps unit norm to rounding,
    # far under the tolerance of its smallest blocks (k = 2)
    assert 0 < support.row_norm_residual <= 8 * EPS < _unit_tolerance(2)


def test_shared_one_register_factors_run_on_views():
    chain = bare_pipeline("honest", 3, 2).v_amp.support.chain
    views = [view for factor in chain for view in factor.views if view is not None]
    assert len(views) == 7
    assert {view[1] for view in views} == {2, 3}


def gathered(factor):
    """``factor`` with every group on the gather path."""
    out = BlockFactor(factor.size, factor.groups)
    object.__setattr__(out, "views", (None,) * len(factor.groups))
    return out


@pytest.mark.parametrize("case", ["mixed", "block", "compressed43"])
def test_view_and_gather_paths_match_the_dense_factor(case):
    _, _, support = chain_case(case)
    viewed = 0
    for factor in support.chain + tuple(f.adjoint() for f in support.chain):
        x = RNG.standard_normal((factor.size, 3)) + 1j * RNG.standard_normal((factor.size, 3))
        want = scattered(factor) @ x
        tol = 1000 * EPS * factor.size
        assert np.abs(factor.apply(x.copy()) - want).max() <= tol
        assert np.abs(gathered(factor).apply(x.copy()) - want).max() <= tol
        viewed += sum(view is not None for view in factor.views)
    assert viewed > 0


def test_amplified_run_allocates_one_workspace():
    pipe = bare_pipeline("honest", 3, 2)
    x0 = RNG.standard_normal((pipe.v_amp.support.index.size, 8)) + 0j
    # the same peak however many phases run: the workspace is allocated once
    for steps in (pipe.v_amp.steps, pipe.v_amp.steps * 3):
        x = x0.copy()
        tracemalloc.start()
        RestrictedProduct(pipe.v_amp.support, steps).run(x)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3 * x.nbytes


@pytest.mark.scale
def test_forward_support_is_the_two_sided_support_at_honest_33():
    # S holds the start and no entry of the full fold or of its adjoint
    # leaves it, so it holds the two-sided closure, which holds it
    test_support_holds_start_and_is_closed(bare_pipeline("honest", 3, 3))


@pytest.mark.scale
def test_simulate_runs_honest_42():
    from pbtkit.cli import main

    assert main(["simulate", "--n", "4", "--d", "2", "--engine", "amplified-V", "--variant", "honest"]) == 0

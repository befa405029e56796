"""The amplified product's support and its restricted S x S chain against
the op tree they are read from."""

import subprocess
import sys
from functools import cache
from math import prod
from pathlib import Path

import numpy as np
import pytest

import pbtkit
from pbtkit.amplify import FullDiagonal, amplified_V, plan
from pbtkit.registers import (
    Branched,
    Composite,
    Gate,
    Layout,
    Op,
    Register,
    Support,
    _factors,
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


def test_compiled_amplified_product_matches_tree(pipe):
    # generic columns, each with amplitudes both on S and off it: the
    # restricted chain and the op trees share the work on every column
    layout = pipe.layout
    batch = random_batch(layout, 2)
    diff = pipe.v_amp.composite.apply(batch, layout) - pipe.v_amp.apply(batch, layout)
    assert np.abs(diff).max() <= 1000 * EPS * layout.size


def test_amplified_product_shares_v_and_diagonals(pipe):
    ops = pipe.v_amp.composite.ops
    assert ops[0] is pipe.naimark.v_op
    assert len(ops) == 2 * pipe.plan.m
    diagonals = {id(op.values) for op in ops if isinstance(op, FullDiagonal)}
    assert len(diagonals) <= 3
    assert len({id(op) for op in ops if not isinstance(op, FullDiagonal)}) == 2
    # the restricted product: one V chain, one V† chain, three diagonals
    steps = pipe.v_amp.steps
    assert len(steps) == len(ops)
    for op, step in zip(ops, steps):
        assert isinstance(op, FullDiagonal) == isinstance(step, np.ndarray)
    assert len({id(step) for step in steps if isinstance(step, np.ndarray)}) <= 3
    assert len({id(step) for step in steps if not isinstance(step, np.ndarray)}) == 2


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
            for m in (mat, mat.T.tocsr()):
                assert inside[support._entries(m, rows, names)[1]].all()


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


@pytest.fixture(scope="module")
def split_batch(pipe):
    """A batch with its first column on S and its second on S^c, and the
    amplified product of op trees applied to it."""
    first = on_support(pipe, random_batch(pipe.layout, 1), inside=True)
    second = on_support(pipe, random_batch(pipe.layout, 1), inside=False)
    batch = np.concatenate([first, second], axis=-1)
    return batch, pipe.v_amp.composite.apply(batch, pipe.layout)


def test_restricted_product_on_support_skips_the_composite(pipe, split_batch, monkeypatch):
    calls = []

    class Counted(Op):
        def __init__(self, op):
            self.op = op

        def apply(self, arr, layout):
            calls.append(arr.shape)
            return self.op.apply(arr, layout)

    monkeypatch.setattr(pipe.v_amp, "composite", Counted(pipe.v_amp.composite))
    batch, expected = split_batch
    got = pipe.v_amp.apply(batch[..., :1], pipe.layout)
    assert calls == []
    assert np.abs(got - expected[..., :1]).max() <= 1000 * EPS * pipe.layout.size


def test_restricted_product_keeps_the_complement_off_support(pipe, split_batch):
    # both columns at once: the S column through the restricted chain, the
    # S^c column through the op trees
    batch, expected = split_batch
    got = pipe.v_amp.apply(batch, pipe.layout)
    assert np.abs(got - expected).max() <= 1000 * EPS * pipe.layout.size
    assert not pipe.v_amp.support.rows(got[..., 1:], pipe.layout).any()


def test_single_gate_bodies_left_untouched():
    pipe = build_pipeline(4, 3, "compressed", with_bob=False, with_ref=False)
    tree = pipe.naimark.uc_op
    (factor,) = _factors(tree, pipe.layout)
    assert len(factor) == len(tree.branches)
    for (key, body), (ctl, names, mat) in zip(tree.branches, factor):
        assert isinstance(body, Gate)
        assert ctl == dict(zip(tree.controls, key)) and names == body.names
        # the body's own matrix: not folded, no rounding-level entry dropped
        assert np.array_equal(mat.toarray(), body.matrix)
        assert mat.nnz == np.count_nonzero(body.matrix)


def test_compile_matches_dense_on_mixed_tree():
    # contiguous registers named out of layout order, a non-contiguous gate,
    # complex folded bodies, an absent branch key and a control register
    # after the touched ones
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
    # with a full start mask S is every index, and the chain the whole tree
    support = Support(tree, layout, np.ones(layout.size, bool))
    assert support.names == layout.names and support.index.size == layout.size
    dense = to_matrix(tree, layout)
    tol = 1000 * EPS * layout.size
    product = np.eye(layout.size)
    for mat in support.chain:
        product = mat @ product
    assert np.abs(product - dense).max() <= tol
    adjoint = np.eye(layout.size)
    for mat in reversed(support.chain):
        adjoint = mat.conj().T @ adjoint
    assert np.abs(adjoint - dense.conj().T).max() <= tol


def block_unitary(*sizes):
    out = np.zeros((sum(sizes),) * 2, dtype=complex)
    at = 0
    for k in sizes:
        out[at : at + k, at : at + k] = random_unitary(k)
        at += k
    return out


def test_restricted_product_matches_dense_on_mixed_tree():
    # block-diagonal gates keep S a proper subset: the gate on c never mixes
    # c = 0 into c > 0, and the trailing register b rides along
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
    plan_ = plan(3.0, 1, start.ravel(), end.ravel())
    amplified = amplified_V(tree, plan_, layout)
    assert 0 < amplified.support.index.size < prod(amplified.support.dims)

    ops = amplified.composite.ops
    v = to_matrix(tree, layout)
    matrices = {id(ops[0]): v, id(ops[2]): v.conj().T}
    dense = np.eye(layout.size)
    for op in ops:
        dense = (np.diag(op.values) if isinstance(op, FullDiagonal) else matrices[id(op)]) @ dense
    assert np.abs(to_matrix(amplified, layout) - dense).max() <= 1000 * EPS * layout.size


def test_import_leaves_scipy_out():
    src = str(Path(pbtkit.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pbtkit; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

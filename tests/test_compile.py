"""The compile pass against the uncompiled op tree it lowers."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbtkit
from pbtkit.amplify import FullDiagonal
from pbtkit.registers import (
    Branched,
    Composite,
    Gate,
    Layout,
    Register,
    compile,
    to_matrix,
)
from pbtkit.simulate import build_pipeline

RNG = np.random.default_rng(31)
EPS = np.finfo(float).eps


def random_unitary(d):
    z = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    return np.linalg.qr(z)[0]


def random_batch(layout, columns=2):
    shape = layout.dims + (columns,)
    batch = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
    return batch / np.linalg.norm(batch.reshape(layout.size, columns), axis=0)


@pytest.fixture(scope="module", params=[("honest", 3, 2), ("compressed", 4, 3)])
def pipe(request):
    variant, n, d = request.param
    return build_pipeline(n, d, variant, with_bob=False, with_ref=False)


def test_compiled_v_matches_tree(pipe):
    layout, v = pipe.layout, pipe.naimark.v_op
    tol = 1000 * EPS * layout.size
    batch = random_batch(layout)
    compiled = compile(v, layout)
    for tree, lowered in ((v, compiled), (v.adjoint(), compiled.adjoint())):
        diff = tree.apply(batch, layout) - lowered.apply(batch, layout)
        assert np.abs(diff).max() <= tol


def test_compiled_amplified_product_matches_tree(pipe):
    # the same phase schedule with the uncompiled V and V† in place of the
    # compiled ones
    layout, v, ops = pipe.layout, pipe.naimark.v_op, pipe.v_amp.ops
    uncompiled = {id(ops[0]): v, id(ops[2]): v.adjoint()}
    tree = Composite(tuple(uncompiled.get(id(op), op) for op in ops))
    batch = random_batch(layout)
    diff = tree.apply(batch, layout) - pipe.v_amp.apply(batch, layout)
    assert np.abs(diff).max() <= 1000 * EPS * layout.size


def test_amplified_product_shares_v_and_diagonals(pipe):
    ops = pipe.v_amp.ops
    assert len(ops) == 2 * pipe.plan.m
    diagonals = {id(op.values) for op in ops if isinstance(op, FullDiagonal)}
    assert len(diagonals) <= 3
    assert len({id(op) for op in ops if not isinstance(op, FullDiagonal)}) == 2


def test_single_gate_bodies_left_untouched():
    pipe = build_pipeline(4, 3, "compressed", with_bob=False, with_ref=False)
    tree = pipe.naimark.uc_op
    lowered = compile(tree, pipe.layout)
    for (key, body), (lowered_key, lowered_body) in zip(tree.branches, lowered.branches):
        assert isinstance(body, Gate)
        assert lowered_key == key and lowered_body is body


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
    lowered = compile(tree, layout)
    dense = to_matrix(tree, layout)
    assert np.abs(to_matrix(lowered, layout) - dense).max() <= 1000 * EPS * layout.size
    assert np.abs(to_matrix(lowered.adjoint(), layout) - dense.conj().T).max() <= (
        1000 * EPS * layout.size
    )


def test_import_leaves_scipy_out():
    src = str(Path(pbtkit.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pbtkit; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

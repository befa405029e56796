import numpy as np
import pytest

from pbtkit.blockenc import SYSTEM
from pbtkit.simulate import build_pipeline

RNG = np.random.default_rng(5)


def test_embed_then_block_round_trips_on_the_protocol_layout():
    layout = build_pipeline(3, 2, "compressed").layout
    first = layout.axis(SYSTEM[0])
    # the system block sits between the ancillas and the receivers
    assert 0 < first and first + len(SYSTEM) < len(layout.names)
    dim = int(np.prod([layout.dim(nm) for nm in SYSTEM]))
    cols = RNG.standard_normal((dim, 3)) + 1j * RNG.standard_normal((dim, 3))
    arr = layout.embed(SYSTEM, cols)
    assert arr.shape == layout.dims + (3,)
    assert np.array_equal(layout.block(arr, SYSTEM)[0, :, :3], cols)
    # every entry at its unravelled system position, all other registers at 0
    expected = np.zeros_like(arr)
    sys_dims = tuple(layout.dim(nm) for nm in SYSTEM)
    for flat in range(dim):
        pos = dict(zip(SYSTEM, np.unravel_index(flat, sys_dims)))
        expected[tuple(pos.get(nm, 0) for nm in layout.names)] = cols[flat]
    assert np.array_equal(arr, expected)


def test_block_is_a_view():
    layout = build_pipeline(3, 2, "compressed").layout
    arr = layout.zeros()
    layout.block(arr, SYSTEM)[0, 1, 0] = 1.0
    assert arr.sum() == 1.0


@pytest.mark.parametrize("names", [("I", "r2"), ("al", "r2"), ("qn", "R")])
def test_block_rejects_registers_that_are_not_contiguous(names):
    layout = build_pipeline(3, 2, "compressed").layout
    with pytest.raises(ValueError, match="not contiguous"):
        layout.block(layout.zeros(), names)
    with pytest.raises(ValueError, match="not contiguous"):
        layout.embed(names, np.zeros((4, 1)))

from functools import cache

import numpy as np
import pytest

from pbtkit.simulate import build_pipeline

RNG = np.random.default_rng(5)


@cache
def honest_pipeline():
    """The honest (3,2) pipeline: its system is five registers, which a
    block or an embedding must flatten in layout order."""
    return build_pipeline(3, 2, "honest")


def test_embed_then_block_round_trips_on_the_protocol_layout():
    pipe = honest_pipeline()
    layout, systems = pipe.layout, pipe.naimark.systems
    first = layout.axis(systems[0])
    # the system block sits between the ancillas and the receivers
    assert 0 < first and first + len(systems) < len(layout.names)
    dim = int(np.prod([layout.dim(nm) for nm in systems]))
    cols = RNG.standard_normal((dim, 3)) + 1j * RNG.standard_normal((dim, 3))
    arr = layout.embed(systems, cols)
    assert arr.shape == layout.dims + (3,)
    assert np.array_equal(layout.block(arr, systems)[0, :, :3], cols)
    # every entry at its unravelled system position, all other registers at 0
    expected = np.zeros_like(arr)
    sys_dims = tuple(layout.dim(nm) for nm in systems)
    for flat in range(dim):
        pos = dict(zip(systems, np.unravel_index(flat, sys_dims)))
        expected[tuple(pos.get(nm, 0) for nm in layout.names)] = cols[flat]
    assert np.array_equal(arr, expected)


def test_block_is_a_view():
    pipe = honest_pipeline()
    arr = pipe.layout.zeros()
    pipe.layout.block(arr, pipe.naimark.systems)[0, 1, 0] = 1.0
    assert arr.sum() == 1.0


@pytest.mark.parametrize("names", [("I", "r2"), ("al", "r2"), ("qn", "R")])
def test_block_rejects_registers_that_are_not_contiguous(names):
    layout = honest_pipeline().layout
    with pytest.raises(ValueError, match="not contiguous"):
        layout.block(layout.zeros(), names)
    with pytest.raises(ValueError, match="not contiguous"):
        layout.embed(names, np.zeros((4, 1)))

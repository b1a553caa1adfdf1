import numpy as np
import pytest

from gnwlab import rng as rngmod
from gnwlab.errors import InvalidInputError

# (master_seed, tag, *block) stream keys, one with a multi-int block.
KEYS = ((0, rngmod.EDGE, 0), (20260808, rngmod.EDGE, 0), (2**64 - 1, rngmod.LATENT, 3),
        (7, rngmod.WINDOW, 2, 5))


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_uniforms_at_equal_the_whole_stream(key):
    N = 1_000_003
    got = rngmod.uniforms_at(np.arange(N), *key)
    assert np.array_equal(got, rngmod.stream(*key).random(N))


def test_uniforms_at_any_offsets_order_and_shape():
    key = KEYS[3]
    stream = rngmod.stream(*key).random(1000)
    # all four words of a block, unsorted, repeated, and a 2-D shape
    offsets = np.array([[9, 0, 3, 3], [1, 2, 999, 6], [5, 4, 7, 0]])
    got = rngmod.uniforms_at(offsets, *key)
    assert got.shape == offsets.shape and np.array_equal(got, stream[offsets])
    empty = rngmod.uniforms_at(np.array([], dtype=np.int64), *key)
    assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize("counter", (2**32 - 1, 2**32, 2**40 + 3))
def test_uniforms_at_far_counters_match_philox_advance(counter):
    # Uniforms 4(c - 1) .. 4(c - 1) + 3 are the block at counter c; a fresh
    # Philox advanced by c - 1 blocks draws that block next.
    for key in KEYS:
        philox = np.random.Philox(key=rngmod.stream(*key).bit_generator.state["state"]["key"])
        philox.advance(counter - 1)
        expected = np.random.Generator(philox).random(4)
        offsets = 4 * (counter - 1) + np.arange(4)
        assert np.array_equal(rngmod.uniforms_at(offsets, *key), expected)


def test_uniforms_at_negative_offset_rejected():
    with pytest.raises(InvalidInputError):
        rngmod.uniforms_at(np.array([3, -1]), 1, rngmod.EDGE, 0)

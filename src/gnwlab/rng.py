"""Deterministic random-stream derivation.

Every random quantity in the package is drawn from a stream keyed by
``(master_seed, stream_tag, *block)`` through numpy's SeedSequence / Philox
machinery.  Single draws and figures use separate tags for latent positions,
edge uniforms, noise and query points, so that, e.g., switching a scenario's
noise model never perturbs its latent draws.

Monte Carlo replications come from window batches (see
:meth:`gnwlab.graph.NeighborhoodSampler.window_batch`): one stream per
(query index, batch index) under the ``WINDOW`` tag.  It draws the window
counts, the window points, the edge uniforms and the noise, in that order,
so the noise model never perturbs the draws before it and the sparsity
amplitude alpha perturbs none of them: common random numbers across alpha
and across noise models.  The window itself depends on h, so h and n
sweeps draw fresh values at every sweep value.

Random access.  The streams are numpy's Philox4x64-10, which is counter
based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
the k-th uniform of a fresh stream is word k % 4 of the Philox block at
counter k // 4 + 1 under the stream's key, converted as (u >> 11) 2^-53.
:func:`uniforms_at` evaluates the generator at those counters only, so it
returns exactly ``stream(key).random(N)[offsets]`` for any N above the
largest offset, at a cost of O(len(offsets)) instead of O(N).
"""

import numpy as np

from .errors import InvalidInputError

# Stream tags.  Values are part of the reproducibility contract: changing
# them changes every sampled dataset.
LATENT = 1
EDGE = 2
NOISE = 3
QUERY = 4
WINDOW = 5

# Rows drawn per batch of single draws.  A replication owns one row of a
# batch, so the batch layout (hence every sampled value) depends only on
# (n, d).  A draw that needs only the first k rows of a batch draws only
# those rows (see NeighborhoodSampler.batch), except for densities whose
# latents are not prefix-stable, which still fill the whole batch.
_BATCH_ELEMENT_BUDGET = 1 << 18
_BATCH_ROW_CAP = 1 << 16

# Window batches.  A window batch is always drawn whole.  A query point's
# batches start at _WINDOW_FIRST_ROWS rows and double up to the rows that
# fill _WINDOW_ELEMENT_BUDGET, so a short run draws few rows it does not use
# and a long one amortises the per-batch cost.
_WINDOW_ELEMENT_BUDGET = 1 << 16
_WINDOW_FIRST_ROWS = 64


def batch_rows(n: int, dim: int) -> int:
    """Number of replications per sampling batch for an n-point, d-dim draw."""
    rows = _BATCH_ELEMENT_BUDGET // max(1, n * dim)
    return max(1, min(_BATCH_ROW_CAP, rows))


def window_rows(expected_count: float, dim: int, batch_index: int) -> int:
    """Rows of window batch ``batch_index`` when a row holds ``expected_count``
    window points on average."""
    cap = int(max(1, _WINDOW_ELEMENT_BUDGET // max(1.0, expected_count * (dim + 2))))
    return min(cap, _WINDOW_FIRST_ROWS << min(batch_index, 32))


def stream(master_seed: int, tag: int, *block: int) -> np.random.Generator:
    """Generator for the (seed, tag, *block) key, Philox-backed."""
    key = (int(master_seed) & (2**64 - 1), int(tag), *map(int, block))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))


# Philox4x64-10 (Random123): round multipliers M0, M1, and the key of round
# r is the stream key plus r times the bumps W0, W1 (mod 2^64).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMPS = np.array([[[r * 0x9E3779B97F4A7C15 % 2**64], [r * 0xBB67AE8584CAA73B % 2**64]]
                          for r in range(10)], dtype=np.uint64)
_LO32, _S11, _S32 = np.uint64(0xFFFFFFFF), np.uint64(11), np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


def uniforms_at(offsets, master_seed: int, tag: int, *block: int) -> np.ndarray:
    """``stream(master_seed, tag, *block).random(N)[offsets]`` for any N above
    the largest offset, computed at the given offsets only.

    ``offsets`` is an int64 array of any shape and order, repeats allowed.
    Philox is evaluated in uint64 arithmetic at counters offsets // 4 + 1; the
    64 x 64 -> 128-bit products are assembled from 32-bit halves.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size and offsets.min() < 0:
        raise InvalidInputError("stream offsets must be >= 0")
    flat = offsets.ravel()
    key = stream(master_seed, tag, *block).bit_generator.state["state"]["key"]
    round_keys = key[:, None] + _PHILOX_BUMPS
    # A block is (left[0], right[0], left[1], right[1]); each round
    # multiplies the left words and swaps them into the right ones.
    left = np.zeros((2, flat.size), dtype=np.uint64)
    left[0] = (flat >> 2) + 1
    right = np.zeros_like(left)
    for k in round_keys:
        # hi = the high word of M * left, from the 32-bit halves' products;
        # no partial sum passes 2^64.
        a_lo, a_hi = left & _LO32, left >> _S32
        t = a_lo * _PHILOX_M_LO
        u = a_hi * _PHILOX_M_LO + (t >> _S32)
        v = a_lo * _PHILOX_M_HI + (u & _LO32)
        hi = a_hi * _PHILOX_M_HI + (u >> _S32) + (v >> _S32)
        left, right = hi[::-1] ^ right ^ k, (left * _PHILOX_M)[::-1]
    words = np.stack((left, right), axis=1).reshape(4, flat.size)
    picked = words[flat & 3, np.arange(flat.size)]
    return ((picked >> _S11) * 2.0**-53).reshape(offsets.shape)

"""Deterministic random-stream derivation.

Every random quantity in the package is drawn from a stream keyed by
``(master_seed, stream_tag, *block)`` through numpy's SeedSequence / Philox
machinery.  Single draws and figures use separate tags for latent positions,
edge uniforms, noise and query points, so that, e.g., switching a scenario's
noise model never perturbs its latent draws.

Monte Carlo replications come from window batches (see
:meth:`gnwlab.graph.NeighborhoodSampler.window_group`): one stream per
(query index, batch index) under the ``WINDOW`` tag.  It draws the window
counts, the window points, the edge uniforms and the noise of the rows
used, in that order, so the noise model never perturbs the draws before it
and the sparsity amplitude alpha perturbs none of them: common random
numbers across alpha and across noise models.  The window itself depends
on h, so h and n sweeps draw fresh values at every sweep value.

Full graphs (:func:`gnwlab.graph.sample_full_graph`) take their latents
from ``stream(seed, LATENT, 0)`` and their edge uniforms from
``stream(seed, EDGE, 0)``: the live pairs, those with positive edge
probability, read its uniforms one after another in row-major order.
Alpha does not change which pairs are live, so full graphs keep common
random numbers across alpha; h does, so each h draws fresh edge uniforms.
"""

import numpy as np

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

# Window batches.  A window batch is drawn whole up to its edge uniforms.  A
# query point's batches start at _WINDOW_FIRST_ROWS rows and double up to the
# rows that fill _WINDOW_ELEMENT_BUDGET, so a short run draws few rows it
# does not use and a long one amortises the per-batch cost.  The Monte Carlo
# driver groups consecutive batches up to the same budget.
_WINDOW_ELEMENT_BUDGET = 1 << 16
_WINDOW_FIRST_ROWS = 64


def batch_rows(n: int, dim: int) -> int:
    """Number of replications per sampling batch for an n-point, d-dim draw."""
    rows = _BATCH_ELEMENT_BUDGET // max(1, n * dim)
    return max(1, min(_BATCH_ROW_CAP, rows))


def window_row_elements(expected_count: float, dim: int) -> float:
    """Elements a window-batch row costs when it holds ``expected_count``
    window points on average: a point, a uniform and a label per point."""
    return max(1.0, expected_count * (dim + 2))


def window_rows(expected_count: float, dim: int, batch_index: int) -> int:
    """Rows of window batch ``batch_index`` when a row holds ``expected_count``
    window points on average."""
    cap = int(max(1, _WINDOW_ELEMENT_BUDGET // window_row_elements(expected_count, dim)))
    return min(cap, _WINDOW_FIRST_ROWS << min(batch_index, 32))


def stream(master_seed: int, tag: int, *block: int) -> np.random.Generator:
    """Generator for the (seed, tag, *block) key, Philox-backed."""
    key = (int(master_seed) & (2**64 - 1), int(tag), *map(int, block))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))

"""Deterministic random-stream derivation.

Every random quantity in the package is drawn from a stream keyed by
``(master_seed, stream_tag, block_index)`` through numpy's SeedSequence /
Philox machinery.  Separate tags for latent positions, edge uniforms, noise
and query points mean that, e.g., switching a scenario's noise model never
perturbs its latent draws -- which gives common random numbers across
estimator and parameter comparisons for free.
"""

import numpy as np

# Stream tags.  Values are part of the reproducibility contract: changing
# them changes every sampled dataset.
LATENT = 1
EDGE = 2
NOISE = 3
QUERY = 4

# Rows drawn per batch.  Each replication owns one row of a batch, so the
# batch layout (hence every sampled value) depends only on (n, d), never on
# the requested replication count or the worker-thread count.  A draw that
# needs only the first k rows of a batch draws only those rows (see
# NeighborhoodSampler.batch), so the budget sets vectorized throughput, not
# the cost of a standalone draw -- except for densities whose latents are
# not prefix-stable, which still fill the whole batch.
_BATCH_ELEMENT_BUDGET = 1 << 18
_BATCH_ROW_CAP = 1 << 16


def batch_rows(n: int, dim: int) -> int:
    """Number of replications per sampling batch for an n-point, d-dim draw."""
    rows = _BATCH_ELEMENT_BUDGET // max(1, n * dim)
    return max(1, min(_BATCH_ROW_CAP, rows))


def stream(master_seed: int, tag: int, block: int = 0) -> np.random.Generator:
    """Generator for the given (seed, tag, block) key, Philox-backed."""
    seq = np.random.SeedSequence(entropy=(int(master_seed) & (2**64 - 1), int(tag), int(block)))
    return np.random.Generator(np.random.Philox(seq))

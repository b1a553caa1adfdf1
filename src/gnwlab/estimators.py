"""Graph-neighbor and kernel-weighted label averages.

Both estimators are weighted label means with a zero fallback when no weight
fires: the graph version weights by realized edge indicators, the classical
kernel version by K((x - X_i)/h).  For an indicator base kernel at full
sparsity the edge indicators equal the kernel weights, so the two estimators
coincide bit for bit on a common draw.

All row reductions go through one shared routine, ``predict_rows``: single
neighborhoods pass one row, the Monte Carlo driver passes the rows of a
group of window batches that share a padded width.  Window rows are padded
with zero weights, which add nothing to either sum; a row is always padded
to its own batch's width, so its value depends only on that batch and is
independent of how the driver groups or schedules batches.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph import QueryNeighborhood
from .model import KernelSpec, as_point

__all__ = ["Prediction", "predict_rows", "gnw_predict", "nw_predict"]


@dataclass(frozen=True)
class Prediction:
    """A single prediction.

    ``mass`` is the neighbor count for the graph estimator and the total
    kernel weight for the classical one; ``empty`` marks the zero fallback.
    """

    value: float
    mass: float
    empty: bool


def predict_rows(labels: np.ndarray, weights: np.ndarray):
    """Weighted label means over the rows of (m, n) matrices.

    Returns (values, masses): value_r = sum_i y_ri w_ri / sum_i w_ri, with 0
    where the weight row sums to 0.  numpy's pairwise reduction keeps the
    accumulation error O(log n) and the result independent of how rows are
    grouped into batches.  The weights and the product are C-ordered because
    numpy sums a row pairwise only when the row runs along the last axis in
    memory; the labels may be a broadcast row, which is not copied.
    """
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    num = np.sum(np.multiply(labels, weights, order="C"), axis=-1)
    mass = np.sum(weights, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(mass > 0.0, num / np.where(mass > 0.0, mass, 1.0), 0.0)
    return values, mass


def gnw_predict(nbhd: QueryNeighborhood) -> Prediction:
    """Average of the labels over the query node's graph neighbors, 0 if none."""
    values, mass = predict_rows(nbhd.labels[None, :], nbhd.edges[None, :].astype(np.float64))
    m = float(mass[0])
    return Prediction(value=float(values[0]), mass=m, empty=m == 0.0)


def nw_predict(x, points: np.ndarray, labels: np.ndarray, kernel: KernelSpec) -> Prediction:
    """Kernel-weighted label average with weights K((x - X_i)/h).

    The sparsity amplitude plays no role here (weights are the base kernel's,
    as if alpha were 1): the classical estimator observes positions, not
    coin flips.
    """
    x = as_point(x)
    points = np.asarray(points, dtype=float)
    if points.ndim == 1 and x.shape[0] == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != x.shape[0]:
        raise InvalidInputError(
            f"points must have shape (m, {x.shape[0]}) for a {x.shape[0]}-d query, "
            f"got {points.shape}"
        )
    dist = np.sqrt(np.sum((points - x) ** 2, axis=-1))
    weights = kernel.base.profile(dist / kernel.h)
    values, mass = predict_rows(np.asarray(labels, dtype=float)[None, :], weights[None, :])
    m = float(mass[0])
    return Prediction(value=float(values[0]), mass=m, empty=m == 0.0)

"""Monte Carlo estimation of the graph estimator's moments, tails and risks.

Replications are vectorised in window batches (see :mod:`gnwlab.graph`):
each draws, per replication, only the nodes that can connect to its query
point.  One driver draws every batch once and runs consecutive batches in
groups, one job per group on a worker pool.  Batch boundaries and the final
reduction order are fixed by the scenario and the query points alone, and
a row is summed at its own batch's padded width whatever group it is in,
so every estimate is bit-identical across thread counts, and a query
point's predictions do not depend on the other query points.  The scenario
config is the only source of a run's parameters: the master seed, the
model and, for the integrated risk, the outer/inner split; callers choose
only the replication count R of a fixed-point run and the thread count.
Estimators take a :class:`PredictionBatch`.  An exhaustive 2^n enumeration
oracle over the conditional edge distribution provides exact small-n
expectations to check the Monte Carlo and the closed-form theory against.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError, ResourceBudgetError
from .estimators import predict_rows
from .graph import NeighborhoodSampler, check_float_budget
from .model import KernelSpec, as_point
from .stats import wilson_halfwidth, wilson_interval
from .theory import smoothed_value

__all__ = [
    "PredictionBatch",
    "MCReport",
    "OracleResult",
    "run_replications",
    "estimate_moments",
    "estimate_tail",
    "estimate_pointwise_risk",
    "estimate_integrated_risk",
    "exact_small_n_oracle",
    "oracle_mean_over_latents",
    "edge_resample_mean",
]

ORACLE_STREAM = 11


@dataclass(frozen=True)
class PredictionBatch:
    """Column-oriented predictions, in replication order; mass 0 marks an
    empty neighbourhood."""

    values: np.ndarray
    masses: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    @property
    def empty_mask(self) -> np.ndarray:
        return self.masses == 0.0


@dataclass(frozen=True)
class MCReport:
    """Replication summary with standard errors.

    ``variance_proxy`` is the mean squared deviation from the reference value
    the moments are taken about (the smoothed value b_n in the verify suites);
    ``standard_variance`` the mean squared deviation from the sample mean.
    About b_n their difference is the analytically known gap
    b_n^2 (1 - c_n)^{2n}.  ``mse`` is present only for risk runs.
    """

    replications: int
    mean: float
    variance_proxy: float
    standard_variance: float
    empty_frequency: float
    mse: float | None = None
    se_mean: float = 0.0
    se_variance_proxy: float = 0.0
    se_mse: float | None = None
    b_n_reference: float = 0.0


def _map_replications(config, xs: np.ndarray, per_query: int,
                      threads: int) -> PredictionBatch:
    """Predictions for len(xs) * per_query replications, in replication order.

    Replication r queries xs[r // per_query].  Each query point's
    replications come from its own window batches (see
    ``NeighborhoodSampler.window_group``), so a batch never spans two query
    points.  Consecutive batches, which may span query points, form groups
    of at most ``_WINDOW_ELEMENT_BUDGET`` elements, and a batch that would
    take a group over the budget starts the next one.  Every group is one
    job on a pool of ``threads`` workers sharing a single sampler.
    """
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    sampler = NeighborhoodSampler(
        config.density, config.kernel, config.regression, config.noise,
        config.n, config.master_seed,
    )
    count = len(xs) * per_query
    check_float_budget(2 * count, "a run of %d replications", count)
    values = np.empty(count, dtype=np.float64)
    masses = np.empty_like(values)
    jobs, group, elements = [], None, 0.0
    for q, x in enumerate(xs):
        window = sampler.window(x)
        row_elements = rngmod.window_row_elements(window.expected, config.dimension)
        for b, lo, rows in window.batches(per_query):
            size = rows * row_elements
            if group is None or elements + size > rngmod._WINDOW_ELEMENT_BUDGET:
                group, elements = [], 0.0
                jobs.append((q * per_query + lo, group))
            group.append((window, q, b, min(rows, per_query - lo)))
            elements += size

    def fill(job):
        start, batches = job
        for rows, labels, edges in sampler.window_group(batches).padded():
            values[start + rows], masses[start + rows] = predict_rows(labels, edges)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, jobs))
    return PredictionBatch(values=values, masses=masses)


def run_replications(config, x, R: int, threads: int = 1) -> PredictionBatch:
    """R independent neighborhood draws at x -> predictions, in replication order.

    The draws come from the scenario's own master seed.
    """
    if R < 1:
        raise InvalidInputError("R must be >= 1")
    x = as_point(x, dim=config.dimension)
    return _map_replications(config, x[None], R, threads)


def estimate_moments(batch: PredictionBatch, reference: float) -> MCReport:
    """Sample moments of a prediction batch about a reference value.

    About b_n the second moment is the variance proxy E[(pred - b_n)^2];
    about f(x) it is the pointwise risk E[(pred - f(x))^2]
    (see ``estimate_pointwise_risk``).
    """
    R = len(batch)
    if R < 100:
        raise InvalidInputError(f"need at least 100 predictions, got {R}")
    v = batch.values
    mean = float(np.mean(v))
    dev = v - reference
    sq = dev * dev
    return MCReport(
        replications=R,
        mean=mean,
        variance_proxy=float(np.mean(sq)),
        standard_variance=float(np.mean((v - mean) ** 2)),
        empty_frequency=float(np.count_nonzero(batch.empty_mask)) / R,
        se_mean=float(np.std(v, ddof=1)) / math.sqrt(R),
        se_variance_proxy=float(np.std(sq, ddof=1)) / math.sqrt(R),
        b_n_reference=reference,
    )


@dataclass(frozen=True)
class TailEstimate:
    delta: float
    frequency: float
    wilson_lo: float
    wilson_hi: float
    se: float  # one-z Wilson halfwidth


def estimate_tail(batch: PredictionBatch, b_n_reference: float,
                  deltas) -> list[TailEstimate]:
    """Empirical exceedance frequencies P(|pred - b_n| >= delta) with Wilson CIs."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas) or deltas != sorted(deltas):
        raise InvalidInputError("deltas must be positive and sorted")
    R = len(batch)
    dev = np.abs(batch.values - b_n_reference)
    out = []
    for d in deltas:
        hits = int(np.count_nonzero(dev >= d))
        lo, hi = wilson_interval(hits, R)
        out.append(TailEstimate(d, hits / R, lo, hi, wilson_halfwidth(hits, R, z=1.0)))
    return out


def estimate_pointwise_risk(config, x, R: int, threads: int = 1) -> MCReport:
    """Moments about b_n plus the squared-error risk E[(pred - f(x))^2] at one point.

    The risk is the second moment of the same batch taken about f(x) instead
    of b_n.
    """
    if R < 100:
        raise InvalidInputError("R must be >= 100")
    x = as_point(x, dim=config.dimension)
    batch = run_replications(config, x, R, threads=threads)
    b_n, _ = smoothed_value(config.density, config.kernel, config.regression, x)
    risk = estimate_moments(batch, config.regression.eval_one(x))
    return replace(estimate_moments(batch, b_n), mse=risk.variance_proxy,
                   se_mse=risk.se_variance_proxy)


def estimate_integrated_risk(config, threads: int = 1) -> MCReport:
    """Doubly averaged squared-error risk over query points drawn from p.

    The config's integrated query sets the split: ``query.outer`` draws
    x_j ~ p from their own stream, and inner replication i at x_j, one of
    ``query.inner``, is replication i of query index j, drawn from x_j's own
    window batches.  Sparsity (alpha) sweeps and noise-model changes see
    common random numbers; bandwidth and n sweeps draw fresh windows at
    every value.  The confidence interval comes from the outer sample
    variance of the inner means (which already contains the inner noise).
    """
    if not config.query.integrated:
        raise InvalidInputError("the integrated risk needs an integrated query "
                                "(an outer/inner replication split)")
    R_outer, R_inner = config.query.outer, config.query.inner
    if R_outer < 10 or R_inner < 10:
        raise InvalidInputError("query.outer and query.inner must both be >= 10")
    check_float_budget(R_outer * (config.dimension + 1), "an outer draw of %d query points",
                       R_outer)
    xs = config.density.sample(rngmod.stream(config.master_seed, rngmod.QUERY, 0), (R_outer,))
    fxs = config.regression.evaluate(xs)

    batch = _map_replications(config, xs, R_inner, threads)
    values = batch.values
    R = len(batch)

    errs = (values.reshape(R_outer, R_inner) - fxs[:, None]) ** 2
    inner_means = errs.mean(axis=1)
    mean = float(values.mean())
    return MCReport(
        replications=R,
        mean=mean,
        variance_proxy=float("nan"),
        standard_variance=float(np.mean((values - mean) ** 2)),
        empty_frequency=float(np.count_nonzero(batch.empty_mask)) / R,
        mse=float(inner_means.mean()),
        se_mse=float(np.std(inner_means, ddof=1)) / math.sqrt(R_outer),
    )


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    exact_expectation_given_points: float
    exact_second_moment_given_points: float


def _bit_patterns(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)


def exact_small_n_oracle(points, labels, kernel: KernelSpec, x) -> OracleResult:
    """Exact conditional E[pred] and E[pred^2] by summing all 2^n edge patterns.

    Labels must be noiseless (the enumeration is over edges only); pattern e
    has probability prod_i p_i^{e_i} (1 - p_i)^{1 - e_i} with
    p_i = k(x, X_i), and the prediction is the e-weighted label mean (0 for
    the empty pattern).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=float)
    n = points.shape[0]
    if n > 16:
        raise ResourceBudgetError("oracle enumeration supports n <= 16")
    x = as_point(x, dim=points.shape[1])
    p = kernel.edge_probabilities(x, points)
    bits = _bit_patterns(n)
    probs = np.ones(1 << n, dtype=np.float64)
    for i in range(n):
        probs *= bits[:, i] * p[i] + (1.0 - bits[:, i]) * (1.0 - p[i])
    counts = bits.sum(axis=1)
    sums = bits @ labels
    vals = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return OracleResult(
        exact_expectation_given_points=float(np.dot(probs, vals)),
        exact_second_moment_given_points=float(np.dot(probs, vals * vals)),
    )


def oracle_mean_over_latents(config, x, draws: int, chunk: int = 128):
    """Average the exact oracle over fresh latent draws: (mean, se).

    Uses a dedicated stream so the latent draws are independent of the
    Monte Carlo replications being cross-checked.
    """
    n = config.n
    if n > 16:
        raise ResourceBudgetError("oracle enumeration supports n <= 16")
    x = as_point(x, dim=config.dimension)
    gen = rngmod.stream(config.master_seed, ORACLE_STREAM, 0)
    bits = _bit_patterns(n)
    counts = bits.sum(axis=1)
    means = np.empty(draws, dtype=np.float64)
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        pts = config.density.sample(gen, (m, n))
        labels = config.regression.evaluate(pts)
        p = config.kernel.edge_probabilities(x, pts)  # (m, n)
        probs = np.ones((m, 1 << n), dtype=np.float64)
        for i in range(n):
            b = bits[:, i][None, :]
            probs *= p[:, i][:, None] * b + (1.0 - p[:, i][:, None]) * (1.0 - b)
        sums = labels @ bits.T
        vals = np.where(counts[None, :] > 0, sums / np.maximum(counts[None, :], 1.0), 0.0)
        means[done:done + m] = np.sum(probs * vals, axis=1)
        done += m
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(draws)


def edge_resample_mean(points, labels, kernel: KernelSpec, x, R: int, seed: int,
                       chunk: int = 65536):
    """Monte Carlo mean over edge randomness only, at fixed points: (mean, se).

    The direct sampling counterpart of the enumeration oracle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=float)
    x = as_point(x, dim=points.shape[1])
    p = kernel.edge_probabilities(x, points)
    gen = rngmod.stream(seed, rngmod.EDGE, 0)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < R:
        m = min(chunk, R - done)
        u = gen.random((m, points.shape[0]))
        edges = (u < p).astype(np.float64)
        vals, _ = predict_rows(np.broadcast_to(labels, edges.shape), edges)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        done += m
    mean = total / R
    var = max(total_sq / R - mean * mean, 0.0)
    return mean, math.sqrt(var / R)

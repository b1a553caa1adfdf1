"""Monte Carlo estimation of the graph estimator's moments, tails and risks.

Replications are vectorised in fixed batches (see :mod:`gnwlab.graph`); one
driver draws each batch once and runs the batches on a worker pool.  Batch
boundaries and the final reduction order are fixed by the scenario alone, so
every estimate is bit-identical across thread counts.  An exhaustive 2^n
enumeration oracle over the conditional edge distribution provides exact
small-n expectations to check the Monte Carlo and the closed-form theory
against.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError, ResourceBudgetError
from .estimators import Prediction, predict_rows
from .graph import NeighborhoodSampler
from .model import KernelSpec, as_point
from .stats import Z99, wilson_halfwidth, wilson_interval
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
    """Column-oriented predictions; iterates as a stream of Prediction."""

    values: np.ndarray
    masses: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, i) -> Prediction:
        m = float(self.masses[i])
        return Prediction(value=float(self.values[i]), mass=m, empty=m == 0.0)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def empty_mask(self) -> np.ndarray:
        return self.masses == 0.0

    @staticmethod
    def coerce(predictions) -> "PredictionBatch":
        if isinstance(predictions, PredictionBatch):
            return predictions
        preds = list(predictions)
        return PredictionBatch(
            values=np.array([p.value for p in preds], dtype=float),
            masses=np.array([p.mass for p in preds], dtype=float),
        )


@dataclass(frozen=True)
class MCReport:
    """Replication summary with 99% confidence information.

    ``variance_proxy`` is the mean squared deviation from the smoothed
    reference value b_n; ``standard_variance`` the mean squared deviation
    from the sample mean.  Their difference is the analytically known gap
    b_n^2 (1 - c_n)^{2n}.  ``mse`` is present only for pointwise-risk runs.
    """

    replications: int
    mean: float
    variance_proxy: float
    standard_variance: float
    empty_frequency: float
    ci_halfwidth_mean: float
    seed: int
    tail_frequencies: tuple[tuple[float, float], ...] = ()
    mse: float | None = None
    se_mean: float = 0.0
    se_variance_proxy: float = 0.0
    se_mse: float | None = None
    b_n_reference: float = 0.0


def _map_replications(config, xs: np.ndarray, per_query: int,
                      threads: int) -> PredictionBatch:
    """Predictions for len(xs) * per_query replications, in replication order.

    Replication r queries xs[r // per_query].  Each batch is drawn once and
    its rows are filled one query-point slice at a time; every batch is one
    job on a pool of ``threads`` workers sharing a single sampler.
    """
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    sampler = NeighborhoodSampler(
        config.density, config.kernel, config.regression, config.noise,
        config.n, config.master_seed,
    )
    R = len(xs) * per_query
    rows = sampler.rows
    values = np.empty(R, dtype=np.float64)
    masses = np.empty(R, dtype=np.float64)

    def fill(b: int):
        lo = b * rows
        hi = min(lo + rows, R)
        pts, unif, labels = sampler.batch(b, stop=hi - lo)
        t = lo
        while t < hi:
            q = t // per_query
            t_hi = min((q + 1) * per_query, hi)
            s = slice(t - lo, t_hi - lo)
            values[t:t_hi], masses[t:t_hi] = predict_rows(
                labels[s], sampler.edges(xs[q], pts[s], unif[s]))
            t = t_hi

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, range((R + rows - 1) // rows)))
    return PredictionBatch(values=values, masses=masses)


def run_replications(config, x, R: int, master_seed: int | None = None,
                     threads: int = 1) -> PredictionBatch:
    """R independent neighborhood draws -> predictions, in replication order."""
    if R < 1:
        raise InvalidInputError("R must be >= 1")
    x = as_point(x, dim=config.dimension)
    if master_seed is not None and master_seed != config.master_seed:
        config = replace(config, master_seed=int(master_seed))
    return _map_replications(config, x[None], R, threads)


def estimate_moments(predictions, b_n_reference: float, seed: int = 0,
                     deltas=()) -> MCReport:
    """Sample moments of a prediction stream against the smoothed reference.

    With ``deltas`` given, the exceedance frequencies
    P(|pred - b_n| >= delta) are attached to the report.
    """
    batch = PredictionBatch.coerce(predictions)
    R = len(batch)
    if R < 100:
        raise InvalidInputError(f"need at least 100 predictions, got {R}")
    v = batch.values
    mean = float(np.mean(v))
    dev_b = v - b_n_reference
    sq_b = dev_b * dev_b
    proxy = float(np.mean(sq_b))
    std_var = float(np.mean((v - mean) ** 2))
    empty = float(np.count_nonzero(batch.empty_mask)) / R
    sd_mean = float(np.std(v, ddof=1))
    se_mean = sd_mean / math.sqrt(R)
    se_proxy = float(np.std(sq_b, ddof=1)) / math.sqrt(R)
    tails = tuple(
        (t.delta, t.frequency) for t in estimate_tail(batch, b_n_reference, deltas)
    ) if deltas else ()
    return MCReport(
        replications=R,
        mean=mean,
        variance_proxy=proxy,
        standard_variance=std_var,
        empty_frequency=empty,
        ci_halfwidth_mean=Z99 * se_mean,
        seed=seed,
        tail_frequencies=tails,
        se_mean=se_mean,
        se_variance_proxy=se_proxy,
        b_n_reference=b_n_reference,
    )


@dataclass(frozen=True)
class TailEstimate:
    delta: float
    frequency: float
    wilson_lo: float
    wilson_hi: float
    se: float  # one-z Wilson halfwidth


def estimate_tail(predictions, b_n_reference: float, deltas) -> list[TailEstimate]:
    """Empirical exceedance frequencies P(|pred - b_n| >= delta) with Wilson CIs."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas) or deltas != sorted(deltas):
        raise InvalidInputError("deltas must be positive and sorted")
    batch = PredictionBatch.coerce(predictions)
    R = len(batch)
    dev = np.abs(batch.values - b_n_reference)
    out = []
    for d in deltas:
        hits = int(np.count_nonzero(dev >= d))
        lo, hi = wilson_interval(hits, R)
        out.append(TailEstimate(d, hits / R, lo, hi, wilson_halfwidth(hits, R, z=1.0)))
    return out


def estimate_pointwise_risk(config, x, R: int, seed: int | None = None,
                            threads: int = 1) -> MCReport:
    """Moments plus squared-error risk (mean of (pred - f(x))^2) at one point."""
    if R < 100:
        raise InvalidInputError("R must be >= 100")
    x = as_point(x, dim=config.dimension)
    batch = run_replications(config, x, R, master_seed=seed, threads=threads)
    b_n, _ = smoothed_value(config.density, config.kernel, config.regression, x)
    report = estimate_moments(batch, b_n, seed=config.master_seed if seed is None else seed)
    fx = config.regression.eval_one(x)
    errs = (batch.values - fx) ** 2
    mse = float(np.mean(errs))
    se_mse = float(np.std(errs, ddof=1)) / math.sqrt(R)
    return replace(report, mse=mse, se_mse=se_mse)


def estimate_integrated_risk(config, R_outer: int, R_inner: int,
                             seed: int | None = None, threads: int = 1) -> MCReport:
    """Doubly averaged squared-error risk over query points drawn from p.

    Outer draws x_j ~ p come from their own stream; inner replication j*i
    reuses the scenario's shared latent/edge/noise streams at global index
    j * R_inner + i, so bandwidth or sparsity sweeps see common random
    numbers.  The confidence interval comes from the outer sample variance
    of the inner means (which already contains the inner noise).
    """
    if R_outer < 10 or R_inner < 10:
        raise InvalidInputError("R_outer and R_inner must both be >= 10")
    if seed is not None and seed != config.master_seed:
        config = replace(config, master_seed=int(seed))
    master = config.master_seed
    xs = config.density.sample(rngmod.stream(master, rngmod.QUERY, 0), (R_outer,))
    fxs = config.regression.evaluate(xs)

    batch = _map_replications(config, xs, R_inner, threads)
    values = batch.values
    R = len(batch)

    errs = (values.reshape(R_outer, R_inner) - fxs[:, None]) ** 2
    inner_means = errs.mean(axis=1)
    mise = float(inner_means.mean())
    se = float(np.std(inner_means, ddof=1)) / math.sqrt(R_outer)
    empty = float(np.count_nonzero(batch.empty_mask)) / R
    mean = float(values.mean())
    return MCReport(
        replications=R,
        mean=mean,
        variance_proxy=float("nan"),
        standard_variance=float(np.mean((values - mean) ** 2)),
        empty_frequency=empty,
        ci_halfwidth_mean=Z99 * float(np.std(values, ddof=1)) / math.sqrt(R),
        seed=master,
        mse=mise,
        se_mse=se,
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

"""Latent-position graph sampling and the ratio-weight identities.

Estimation runs only ever need the edges adjacent to the query point, so the
sampler draws, per replication, the n latent points, n edge uniforms and n
noise values -- O(n) instead of O(n^2).  Full-graph sampling exists for
figure reproduction only.

Replications are organized in fixed-size batches: replication ``r`` lives in
row ``r % B`` of batch ``r // B``, and each batch owns three derived random
streams (latents / edge uniforms / noise).  The batch layout depends only on
(n, d), so a replication's data is bit-identical whether it is drawn alone,
inside a vectorised sweep, or under any worker-thread count.

Every stream fills its batch row by row, so rows [0, k) of a batch can be
drawn without the rest: a single draw at replication ``r`` costs O((r % B + 1)
n).  Only the latents of a density that is not ``Density.prefix_stable``
(uniform ball, mixture) are still drawn for the whole batch and cut.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError, ResourceBudgetError
from .model import Density, KernelSpec, Noise, Regression, as_point

__all__ = [
    "QueryNeighborhood",
    "FullGraph",
    "SeedRecord",
    "NeighborhoodSampler",
    "sample_neighborhood",
    "sample_full_graph",
    "r_subset",
    "DecouplingReport",
    "decoupling_selftest",
    "export_edges_csv",
    "export_points_csv",
]


@dataclass(frozen=True)
class SeedRecord:
    master_seed: int
    batch_index: int
    row: int


@dataclass(frozen=True)
class QueryNeighborhood:
    """One realized draw at a query point: latents, labels and query edges."""

    x: np.ndarray
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    edges: np.ndarray  # (n,) uint8
    seed_record: SeedRecord

    @property
    def n(self) -> int:
        return self.points.shape[0]


class NeighborhoodSampler:
    """Draws query neighborhoods for one scenario, batch by batch.

    Latent points, noise and labels do not depend on the query point; only
    the edge comparison does, so one drawn batch can serve every query point
    whose replications fall in it.  The sampler keeps no state between
    calls and may be shared by worker threads.
    """

    def __init__(self, density: Density, kernel: KernelSpec, regression: Regression,
                 noise: Noise, n: int, master_seed: int):
        if n < 1:
            raise InvalidInputError(f"n must be >= 1, got {n}")
        self.density = density
        self.kernel = kernel
        self.regression = regression
        self.noise = noise
        self.n = int(n)
        self.master_seed = int(master_seed)
        self.rows = rngmod.batch_rows(self.n, density.dim)

    def batch(self, batch_index: int, stop: int | None = None):
        """(points, uniforms, labels) of rows [0, stop) of a batch, shapes (stop, n[, d]).

        ``stop`` defaults to the whole batch.  Each stream is filled row by
        row, so these rows are bit-identical to the first ``stop`` rows of
        the whole batch; only the latents of a density that is not
        ``prefix_stable`` are drawn for the whole batch and cut.
        """
        stop = self.rows if stop is None else stop
        if not 0 <= stop <= self.rows:
            raise InvalidInputError(f"stop must lie in [0, {self.rows}], got {stop}")
        shape = (stop, self.n)
        latent = rngmod.stream(self.master_seed, rngmod.LATENT, batch_index)
        if self.density.prefix_stable:
            pts = self.density.sample(latent, shape)
        else:
            pts = self.density.sample(latent, (self.rows, self.n))[:stop]
        unif = rngmod.stream(self.master_seed, rngmod.EDGE, batch_index).random(shape)
        eps = self.noise.sample(rngmod.stream(self.master_seed, rngmod.NOISE, batch_index), shape)
        labels = self.regression.evaluate(pts) + eps
        return pts, unif, labels

    def edges(self, x, points: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Float edge indicators between x and points, given their uniforms.

        Edges fire when U < k(x, X): with half-open uniforms this makes
        probability-0 edges impossible and probability-1 edges certain.
        Shapes broadcast as in ``KernelSpec.edge_probabilities``.
        """
        return (uniforms < self.kernel.edge_probabilities(x, points)).astype(np.float64)

    def neighborhood(self, x, replication_index: int) -> QueryNeighborhood:
        if replication_index < 0:
            raise InvalidInputError("replication_index must be >= 0")
        x = as_point(x, dim=self.density.dim)
        b, r = divmod(int(replication_index), self.rows)
        pts, unif, labels = self.batch(b, stop=r + 1)
        return QueryNeighborhood(
            x=x,
            points=pts[r].reshape(self.n, self.density.dim).copy(),
            labels=labels[r].copy(),
            edges=self.edges(x, pts[r], unif[r]).astype(np.uint8),
            seed_record=SeedRecord(self.master_seed, b, r),
        )


def sample_neighborhood(density: Density, kernel: KernelSpec, regression: Regression,
                        noise: Noise, n: int, x, replication_index: int,
                        master_seed: int) -> QueryNeighborhood:
    """One reproducible neighborhood draw; see NeighborhoodSampler."""
    sampler = NeighborhoodSampler(density, kernel, regression, noise, n, master_seed)
    return sampler.neighborhood(x, replication_index)


# ---------------------------------------------------------------------------
# Full graphs (figures only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullGraph:
    points: np.ndarray  # (n, d)
    adjacency: np.ndarray  # (n, n) uint8, symmetric, zero diagonal

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def edge_list(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(i.tolist(), j.tolist()))


def sample_full_graph(density: Density, kernel: KernelSpec, n: int, seed: int,
                      max_pairs: int = 20_000_000) -> FullGraph:
    """All-pairs Bernoulli graph over n latent points."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    pairs = n * (n - 1) // 2
    if pairs > max_pairs:
        raise ResourceBudgetError(f"{pairs} pairs exceeds the edge budget {max_pairs}")
    pts = density.sample(rngmod.stream(seed, rngmod.LATENT, 0), (n,))
    gen = rngmod.stream(seed, rngmod.EDGE, 0)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i in range(n - 1):
        probs = kernel.edge_probabilities(pts[i], pts[i + 1:])
        u = gen.random(n - 1 - i)
        row = (u < probs).astype(np.uint8)
        adj[i, i + 1:] = row
        adj[i + 1:, i] = row
    return FullGraph(points=pts, adjacency=adj)


# ---------------------------------------------------------------------------
# Ratio weights and the decoupling identities
# ---------------------------------------------------------------------------


def r_subset(edges, indices) -> float:
    """Reciprocal ratio weight R_I over a 0-based index subset I.

        R_I = 1 / (|I| + sum of edges outside I)      if I is nonempty,
        R_empty = 1 / (total edges)  if any edge fires, else 0.
    """
    edges = np.asarray(edges)
    n = edges.shape[0]
    idx = sorted(int(i) for i in indices)
    if any(i < 0 or i >= n for i in idx):
        raise InvalidInputError(f"subset indices must lie in [0, {n})")
    if len(set(idx)) != len(idx):
        raise InvalidInputError("subset indices must be distinct")
    denominator = _r_denominator(int(np.sum(edges)), edges, tuple(idx))
    return 1.0 / denominator if denominator > 0 else 0.0


def _r_denominator(total: int, edges, subset: tuple[int, ...]) -> int:
    """Integer denominator of R_I; 0 encodes the empty-graph zero branch."""
    if not subset:
        return total  # 0 -> R is 0 by convention
    inside = sum(int(edges[i]) for i in subset)
    return len(subset) + total - inside


@dataclass(frozen=True)
class DecouplingReport:
    n_max: int
    patterns_checked: int
    identity_checks: int
    passed: bool
    first_counterexample: tuple | None = None


def decoupling_selftest(n: int) -> DecouplingReport:
    """Exhaustively verify the ratio-weight identities over all 2^n edge
    patterns.

    For every singleton I = {i} and J in {empty, one disjoint singleton, one
    disjoint pair} it checks, in exact rational arithmetic,

        R_J * prod_{i in I} a_i  ==  R_{I union J} * prod_{i in I} a_i,

    and per pattern the telescoping identity  sum_i a_i R_{i} == [any edge].
    """
    if not (1 <= n <= 16):
        raise ResourceBudgetError("decoupling selftest supports 1 <= n <= 16")
    patterns = 0
    checks = 0
    for mask in range(1 << n):
        edges = [(mask >> i) & 1 for i in range(n)]
        total = sum(edges)
        patterns += 1
        for i in range(n):
            js: list[tuple[int, ...]] = [()]
            if n >= 2:
                js.append(((i + 1) % n,))
            if n >= 3:
                js.append(((i + 1) % n, (i + 2) % n))
            for j_set in js:
                checks += 1
                if edges[i] == 0:
                    continue  # both sides vanish with the a-product
                lhs = _r_denominator(total, edges, j_set)
                rhs = _r_denominator(total, edges, tuple(sorted((i, *j_set))))
                lhs_val = Fraction(1, lhs) if lhs > 0 else Fraction(0)
                rhs_val = Fraction(1, rhs) if rhs > 0 else Fraction(0)
                if lhs_val != rhs_val:
                    return DecouplingReport(
                        n, patterns, checks, False,
                        (tuple(edges), (i,), j_set, float(lhs_val), float(rhs_val)),
                    )
        checks += 1
        acc = Fraction(0)
        for i in range(n):
            if edges[i]:
                acc += Fraction(1, _r_denominator(total, edges, (i,)))
        if acc != Fraction(int(total > 0)):
            return DecouplingReport(
                n, patterns, checks, False, (tuple(edges), "sum", float(acc)),
            )
    return DecouplingReport(n, patterns, checks, True)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def export_edges_csv(graph: FullGraph, path) -> None:
    """Undirected edge list: header src,dst with 0-based ids and i < j."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("src,dst\n")
        for i, j in graph.edge_list():
            fh.write(f"{i},{j}\n")


def export_points_csv(points: np.ndarray, path) -> None:
    """Latent coordinates: header node,x0,...,x{d-1}."""
    points = np.atleast_2d(points)
    d = points.shape[1]
    cols = ",".join(f"x{k}" for k in range(d))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"node,{cols}\n")
        for idx, row in enumerate(points):
            coords = ",".join(repr(float(v)) for v in row)
            fh.write(f"{idx},{coords}\n")

"""Latent-position graph sampling and the ratio-weight identities.

An estimate at a query point x reads only the edges between x and the other
nodes, so no sampler here draws more than O(n) values per replication, and
the Monte Carlo one draws far fewer.  Full-graph sampling exists for figure
reproduction only.

Window batches (Monte Carlo).  Under a kernel supported in B(x, h r_K), only
nodes in a window W containing that ball can connect to x.  The nodes of an
n-point draw that fall in W form a binomial point process: N_w ~ Bin(n, pi_w)
of them, iid from p restricted to W, where pi_w = P(X in W).  A window batch
draws exactly that for each of its rows, applies the edge rule U < k(x, X)
and pads the rows to the batch's largest N_w with edges that never fire.
Each batch belongs to one query point and owns one stream, keyed by
(master_seed, query index, batch index); the rows per batch depend only on
(n, pi_w, d).  A replication's prediction therefore depends only on
(master_seed, its query index, its index within that query), never on the
replication count, the other query points or the worker-thread count.  A
replication costs O(n pi_w) instead of O(n).

Single draws (``sample_neighborhood``, the tradeoff figure).  These keep the
full n-point draw, organized in fixed-size batches: replication ``r`` lives
in row ``r % B`` of batch ``r // B``, and each batch owns three derived
random streams (latents / edge uniforms / noise).  The batch layout depends
only on (n, d).  Every stream fills its batch row by row, so rows [0, k) of a
batch can be drawn without the rest: a single draw at replication ``r`` costs
O((r % B + 1) n).  Only the latents of a density that is not
``Density.prefix_stable`` (uniform ball, mixture) are still drawn for the
whole batch and cut.

Both kinds of batch refuse, with ``ResourceBudgetError``, to allocate float64
arrays larger than ``FLOAT_BUDGET_BYTES``.

Full graphs (``sample_full_graph``, the rgg figure).  A pair (i, j), i < j,
is live when k(X_i, X_j) > 0.  The live pairs, in row-major order, take
consecutive uniforms of one edge stream, and a pair gets an edge when
U < k(X_i, X_j).  A cell list finds the E candidate pairs within the
kernel's support radius, which hold every live pair; so a full graph costs
a sort of the n points by cell, a distance check on the pairs of
neighbouring cells and O(E) uniforms, and neither an n x n matrix nor the
n(n-1)/2 uniforms of all pairs are generated.  Which pairs are live, hence
which uniform each one reads, does not depend on the sparsity amplitude
alpha, so graphs at different alpha share their uniforms; graphs at
different h do not.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError, ResourceBudgetError
from .model import Density, KernelSpec, Noise, Regression, as_point

__all__ = [
    "FLOAT_BUDGET_BYTES",
    "check_float_budget",
    "QueryNeighborhood",
    "QueryWindow",
    "WindowBatch",
    "FullGraph",
    "SeedRecord",
    "NeighborhoodSampler",
    "sample_neighborhood",
    "sample_full_graph",
    "r_subset",
    "DecouplingReport",
    "decoupling_selftest",
]


# Largest total size of the float64 arrays one batch may allocate.
FLOAT_BUDGET_BYTES = 1 << 30


def check_float_budget(floats: int, subject: str, *args) -> None:
    """Refuse float64 arrays of ``floats`` elements in all, for what
    ``subject % args`` names, above ``FLOAT_BUDGET_BYTES``."""
    if floats * 8 > FLOAT_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"{subject % args} needs {floats * 8} bytes of float64 arrays, "
            f"above the budget of {FLOAT_BUDGET_BYTES} bytes")


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


@dataclass(frozen=True)
class QueryWindow:
    """A query point with its window mass pi_w and its expected window count."""

    x: np.ndarray
    mass: float
    expected: float  # n pi_w

    def batch_rows(self, batch_index: int) -> int:
        """Rows of window batch ``batch_index``; they depend on (n pi_w, d) only."""
        return rngmod.window_rows(self.expected, self.x.shape[0], batch_index)

    def batches(self, replications: int):
        """(batch index, first replication, rows) of the batches that cover
        replications [0, replications)."""
        b = lo = 0
        while lo < replications:
            rows = self.batch_rows(b)
            yield b, lo, rows
            b, lo = b + 1, lo + rows


@dataclass(frozen=True)
class WindowBatch:
    """One window batch of a query point, rows padded to m = counts.max().

    Row r holds counts[r] window nodes, in the first counts[r] slots of
    ``edges`` and ``labels``; a padded slot has edge 0 and label 0.
    """

    counts: np.ndarray  # (rows,) int
    points: np.ndarray  # (counts.sum(), d): the window nodes, in row order
    edges: np.ndarray  # (rows, m) float edge indicators
    labels: np.ndarray  # (rows, m)


class NeighborhoodSampler:
    """Draws query neighborhoods for one scenario, batch by batch.

    ``batch`` draws whole n-point rows for single draws; ``window_batch``
    draws only the nodes that can connect to one query point, for the Monte
    Carlo driver.  The sampler keeps no state between calls and may be
    shared by worker threads.
    """

    def __init__(self, density: Density, kernel: KernelSpec, regression: Regression,
                 noise: Noise, n: int, master_seed: int):
        if n < 1:
            raise InvalidInputError(f"n must be >= 1, got {n}")
        if n >= 2**63:  # numpy's binomial draw takes a C long
            raise InvalidInputError(f"n must be below 2**63 to be sampled, got {n}")
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
        latent_rows = stop if self.density.prefix_stable else self.rows
        check_float_budget(latent_rows * self.n * self.density.dim + 3 * stop * self.n,
                           "a batch of %d rows and %d nodes", stop, stop * self.n)
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

    def window(self, x) -> QueryWindow:
        """The window of query point x under the kernel's support radius."""
        x = as_point(x, dim=self.density.dim)
        mass = min(1.0, self.density.window_mass(x, self.kernel.support_radius))
        return QueryWindow(x, mass, self.n * mass)

    def window_batch(self, window: QueryWindow, query_index: int,
                     batch_index: int) -> WindowBatch:
        """Batch ``batch_index`` of the query point with index ``query_index``.

        Its rows are the query's replications in the order of
        ``window.batches``.  The batch is always drawn whole, from one
        stream: the counts N_w ~ Bin(n, pi_w) of every row, then their window
        points, edge uniforms and noise, each as one flat draw in row order.
        """
        d = self.density.dim
        rows = window.batch_rows(batch_index)
        gen = rngmod.stream(self.master_seed, rngmod.WINDOW, query_index, batch_index)
        counts = gen.binomial(self.n, window.mass, size=rows)
        total, m = int(counts.sum()), int(counts.max())
        check_float_budget(total * (d + 3) + 2 * rows * m,
                           "a batch of %d rows and %d nodes", rows, total)
        points = self.density.window_sample(gen, window.x, self.kernel.support_radius, total)
        unif = gen.random(total)
        labels = self.regression.evaluate(points) + self.noise.sample(gen, (total,))
        used = np.arange(m) < counts[:, None]
        padded_edges = np.zeros((rows, m))
        padded_edges[used] = self.edges(window.x, points, unif)
        padded_labels = np.zeros((rows, m))
        padded_labels[used] = labels
        return WindowBatch(counts, points, padded_edges, padded_labels)

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

# Candidate pairs whose edge probabilities and uniforms ``sample_full_graph``
# evaluates per step, which bounds its temporaries.
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class FullGraph:
    points: np.ndarray  # (n, d)
    edges: np.ndarray  # (E, 2) int, i < j in each row, rows in row-major pair order

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def edge_list(self) -> list[tuple[int, int]]:
        i, j = self.edges.T
        return list(zip(i.tolist(), j.tolist()))


# Cell keys stay below this bound, so a key plus or minus a row stride fits int64.
_KEY_SPACE = 1 << 62
# Axes the cells cut; each one more would triple the slices a point reads.
_GRID_AXES = 3


def _key_space(cells: np.ndarray) -> int:
    """Row-major cell keys that (k, n) cell coordinates need, padding included."""
    return math.prod(int(m) + 3 for m in cells.max(axis=1))


def _near_pairs(pts: np.ndarray, radius: float, max_pairs: int) -> np.ndarray:
    """Every pair (i, j), i < j, of rows of ``pts`` (n, d) whose squared
    distance, summed over the axes in order, is at most radius^2; an (E, 2)
    int64 array in row-major pair order.

    A cell list: the first k = min(d, 3) axes are cut into cubic cells of
    side at least ``radius``, so a pair within reach lies in the same or
    adjacent cells, and the points are sorted row-major by cell.  The three
    adjacent cells along axis k - 1 then hold one contiguous slice of the
    sorted points, so each point meets its candidates in 1 + (3^(k-1) - 1)/2
    slices (1, 2 or 5): its own row's slice after itself and the slices of
    the rows that follow it.  Every candidate pair is therefore visited
    once, and refused with ``ResourceBudgetError``, before any pair array is
    built, when there are more than ``max_pairs``.  Only occupied cells are
    kept, so memory is O(n + candidates) however far apart the points lie.
    """
    n, d = pts.shape
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    cols = np.ascontiguousarray(pts.T)
    grid = cols[:_GRID_AXES]
    lo = grid.min(axis=1, keepdims=True)
    # (p - lo) / side is off by at most about 2^-52 span / side, so this side
    # keeps the cells of any pair within reach at most one apart.
    side = radius + float((grid.max(axis=1, keepdims=True) - lo).max()) * 2.0**-50
    cells = ((grid - lo) / side).astype(np.int64)
    if _key_space(cells) >= _KEY_SPACE:
        # Far-apart points: per axis, close each run of empty cells to one
        # cell, which leaves every pair of cells exactly as adjacent as it
        # was; merging cells in twos, if still needed, only adds candidates.
        for c in cells:
            by = np.argsort(c)
            c[by] = np.concatenate(([0], np.cumsum(np.minimum(np.diff(c[by]), 2))))
        while _key_space(cells) >= _KEY_SPACE:
            cells //= 2
    extents = (cells.max(axis=1) + 3).tolist()  # an empty cell pads each end
    key = np.zeros(n, dtype=np.int64)
    for c, extent in zip(cells, extents):
        key = key * extent + c + 1
    order = np.argsort(key)
    key = key[order]
    first_of_cell = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    cell_key = key[first_of_cell]
    k = len(extents)
    strides = [math.prod(extents[axis + 1:]) for axis in range(k)]
    rows = [sum(a * s for a, s in zip(offset, strides))
            for offset in itertools.product((-1, 0, 1), repeat=k - 1) if offset > (0,) * (k - 1)]
    # Slice s of sorted point p is [start[p, s], start[p, s] + length[p, s]):
    # the rest of its own row's slice, then each following row's slice.
    cell_of = np.repeat(np.arange(cell_key.size), np.diff(np.append(first_of_cell, n)))
    start = np.empty((n, 1 + len(rows)), dtype=np.int64)
    length = np.empty_like(start)
    start[:, 0] = np.arange(1, n + 1)
    length[:, 0] = np.searchsorted(key, cell_key + 1, "right")[cell_of] - start[:, 0]
    for slot, row in enumerate(rows, start=1):
        start[:, slot] = np.searchsorted(key, cell_key + (row - 1), "left")[cell_of]
        end = np.searchsorted(key, cell_key + (row + 1), "right")[cell_of]
        length[:, slot] = end - start[:, slot]
    start, length = start.ravel(), length.ravel()
    count = int(length.sum())
    if count > max_pairs:
        raise ResourceBudgetError(
            f"{count} candidate pairs exceeds the pair budget {max_pairs}")
    first = np.repeat(np.arange(n), length.reshape(n, -1).sum(axis=1))
    second = np.repeat(start - (np.cumsum(length) - length), length)
    second += np.arange(count)
    dist2 = np.zeros(count)
    for col in cols[:, order]:
        diff = col.take(first) - col.take(second)
        dist2 += diff * diff
    near = np.flatnonzero(dist2 <= radius * radius)
    i, j = order.take(first.take(near)), order.take(second.take(near))
    pair = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return np.stack(np.divmod(pair, n), axis=1)


def sample_full_graph(density: Density, kernel: KernelSpec, n: int, seed: int,
                      max_pairs: int = 20_000_000) -> FullGraph:
    """All-pairs Bernoulli graph over n latent points.

    The live pairs (i, j), i < j, those with k(X_i, X_j) > 0, take
    consecutive uniforms U of the EDGE stream in row-major order, and a
    live pair gets an edge when U < k(X_i, X_j).  Only the candidate pairs
    of a cell list, the pairs within the kernel's support radius, are
    evaluated, in ``_PAIR_CHUNK`` steps from one generator, so every edge is
    the one the all-pairs rule draws, at O(E) instead of O(n^2) cost.
    ``max_pairs`` bounds the candidate pairs, the pairs of neighbouring
    cells.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    # Per point, the cell list holds four copies of its coordinates, seven
    # indices and the start and length of up to five slices.
    check_float_budget(n * (4 * density.dim + 17), "a full graph of %d nodes", n)
    pts = density.sample(rngmod.stream(seed, rngmod.LATENT, 0), (n,))
    # The slack keeps pairs whose rounded distance still connects at the radius.
    near = _near_pairs(pts, kernel.support_radius * (1 + 1e-9), max_pairs)
    coins = rngmod.stream(seed, rngmod.EDGE, 0)
    fire = np.zeros(near.shape[0], dtype=bool)
    for lo in range(0, near.shape[0], _PAIR_CHUNK):
        i, j = near[lo:lo + _PAIR_CHUNK].T
        probs = kernel.edge_probabilities(pts[i], pts[j])
        live = np.flatnonzero(probs > 0.0)
        fire[lo + live] = coins.random(live.size) < probs[live]
    return FullGraph(points=pts, edges=near[fire])


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
    denominator = _r_denominator(int(np.sum(edges)), edges.astype(np.int64), tuple(idx))
    return _r_value(denominator)


def _r_denominator(total, edges, subset: tuple[int, ...]):
    """Integer denominator of R_I; 0 encodes the empty-graph zero branch.

    ``edges`` may carry leading axes, one pattern per row, with ``total``
    holding each pattern's edge count.
    """
    if not subset:
        return total  # 0 -> R is 0 by convention
    return len(subset) + total - edges[..., list(subset)].sum(axis=-1)


def _r_value(denominator) -> float:
    return 1 / int(denominator) if denominator > 0 else 0.0


@dataclass(frozen=True)
class DecouplingReport:
    n_max: int
    patterns_checked: int
    identity_checks: int
    passed: bool
    first_counterexample: tuple | None = None


def _identity_checks(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(i, J) of one pattern's identity checks, in check order: J is empty,
    then one disjoint singleton, then one disjoint pair, as n allows."""
    checks = []
    for i in range(n):
        checks.append((i, ()))
        if n >= 2:
            checks.append((i, ((i + 1) % n,)))
        if n >= 3:
            checks.append((i, ((i + 1) % n, (i + 2) % n)))
    return checks


def decoupling_selftest(n: int) -> DecouplingReport:
    """Exhaustively verify the ratio-weight identities over all 2^n edge
    patterns.

    For every singleton I = {i} and J in {empty, one disjoint singleton, one
    disjoint pair} it checks, in exact arithmetic,

        R_J * prod_{i in I} a_i  ==  R_{I union J} * prod_{i in I} a_i,

    and per pattern the telescoping identity  sum_i a_i R_{i} == [any edge].
    All patterns are checked at once on integer denominators: for positive
    a and b, 1/a == 1/b exactly when a == b, and the telescoping sum is
    compared as sum_i L/den_i == L [any edge], with L the least common
    multiple of the denominators.  A failure reports the first failing
    check in (pattern, i, J) order, the telescoping check last in each
    pattern.
    """
    if not (1 <= n <= 16):
        raise ResourceBudgetError("decoupling selftest supports 1 <= n <= 16")
    edges = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    total = edges.sum(axis=1)
    checks = _identity_checks(n)
    fails = np.empty((edges.shape[0], len(checks) + 1), dtype=bool)
    for k, (i, j_set) in enumerate(checks):
        lhs = _r_denominator(total, edges, j_set)
        rhs = _r_denominator(total, edges, tuple(sorted((i, *j_set))))
        # both sides vanish with the a-product when a_i = 0
        fails[:, k] = (edges[:, i] != 0) & (lhs != rhs)
    den = np.column_stack([_r_denominator(total, edges, (i,)) for i in range(n)])
    used = (edges != 0) & (den > 0)
    lcm = math.lcm(*set(den[used].tolist()))
    dtype = np.int64 if lcm * n < 1 << 63 else object
    shares = np.where(used, lcm // np.where(used, den, 1).astype(dtype), 0).sum(axis=1)
    fails[:, -1] = shares != lcm * (total > 0).astype(dtype)
    if not fails.any():
        return DecouplingReport(n, fails.shape[0], fails.size, True)
    first = int(np.argmax(fails.ravel()))
    p, k = divmod(first, fails.shape[1])
    pattern = tuple(edges[p].tolist())
    if k == len(checks):
        example = (pattern, "sum", int(shares[p]) / lcm)
    else:
        i, j_set = checks[k]
        lhs = _r_denominator(total[p], edges[p], j_set)
        rhs = _r_denominator(total[p], edges[p], tuple(sorted((i, *j_set))))
        example = (pattern, (i,), j_set, _r_value(lhs), _r_value(rhs))
    return DecouplingReport(n, p + 1, first + 1, False, example)


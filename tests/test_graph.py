import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import unit_interval_scenario
from gnwlab import graph
from gnwlab import rng as rngmod
from gnwlab.errors import InvalidInputError, ResourceBudgetError
from gnwlab.graph import (
    DecouplingReport,
    NeighborhoodSampler,
    decoupling_selftest,
    export_edges_csv,
    export_points_csv,
    r_subset,
    sample_full_graph,
    sample_neighborhood,
)
from gnwlab.model import (
    BoundedUniformNoise,
    ConstantFunction,
    GaussianDensity,
    GaussianNoise,
    HalfPlateauKernel,
    IndicatorKernel,
    KernelSpec,
    LinearFunction,
    MixtureDensity,
    NoNoise,
    RademacherNoise,
    TriangleKernel,
    UniformBall,
    UniformCube,
)


def _draw(cfg, x, rep):
    return sample_neighborhood(
        cfg.density, cfg.kernel, cfg.regression, cfg.noise, cfg.n, x, rep, cfg.master_seed,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_reproducible_bit_identical():
    cfg = unit_interval_scenario(n=25)
    a = _draw(cfg, [0.5], 3)
    b = _draw(cfg, [0.5], 3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.edges, b.edges)
    c = _draw(cfg, [0.5], 4)
    assert not np.array_equal(a.points, c.points)


def test_labels_are_regression_plus_noise():
    cfg = unit_interval_scenario(n=50, regression=ConstantFunction(2.0))
    nb = _draw(cfg, [0.5], 0)
    assert np.array_equal(nb.labels, np.full(50, 2.0))


def test_labels_decompose_into_signal_plus_bounded_noise():
    cfg = unit_interval_scenario(n=80, regression=ConstantFunction(1.5),
                                 noise=BoundedUniformNoise(sigma_b=0.25))
    nb = _draw(cfg, [0.5], 2)
    residual = nb.labels - cfg.regression.evaluate(nb.points)
    assert np.all(np.abs(residual) <= 0.25)
    assert nb.seed_record.master_seed == cfg.master_seed


def test_no_window_means_no_edges():
    cfg = unit_interval_scenario(n=200, h=1e-12)
    nb = _draw(cfg, [0.5], 0)
    assert int(nb.edges.sum()) == 0


def test_full_window_means_all_edges():
    cfg = unit_interval_scenario(n=200, h=2.0)
    nb = _draw(cfg, [0.5], 0)
    assert int(nb.edges.sum()) == 200


def test_edge_count_concentrates():
    # c_n(0.5) = 0.2 at h = 0.1; binomial gate 3 sqrt(pq/n)
    cfg = unit_interval_scenario(n=100_000, h=0.1)
    nb = _draw(cfg, [0.5], 0)
    rate = nb.edges.sum() / cfg.n
    assert abs(rate - 0.2) <= 3.0 * math.sqrt(0.2 * 0.8 / cfg.n)


def test_edges_conditionally_independent():
    # at fixed points, edge indicators across replications are uncorrelated
    n, R = 4, 100_000
    pts = np.array([[0.45], [0.55], [0.5], [0.48]])
    kernel = KernelSpec(IndicatorKernel(), alpha=0.5, h=0.1)
    probs = kernel.edge_probabilities(np.array([0.5]), pts)
    u = rngmod.stream(7, rngmod.EDGE, 0).random((R, n))
    edges = (u < probs).astype(float)
    for i in range(n):
        for j in range(i + 1, n):
            corr = float(np.corrcoef(edges[:, i], edges[:, j])[0, 1])
            assert abs(corr) <= 4.0 / math.sqrt(R)


def test_noise_stream_does_not_perturb_latents():
    quiet = unit_interval_scenario(n=30)
    noisy = unit_interval_scenario(n=30, noise=GaussianNoise(stddev=1.0))
    a = _draw(quiet, [0.5], 5)
    b = _draw(noisy, [0.5], 5)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# prefix draws: a replication draws only rows 0..r of its batch
# ---------------------------------------------------------------------------


DENSITIES_2D = {
    "cube": UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0)),
    "ball": UniformBall(center=(0.0, 0.0), radius=1.0),
    "gaussian": GaussianDensity(mean=(0.0, 0.0), stddev=0.5),
    "mixture": MixtureDensity(components=(
        (0.3, UniformBall(center=(0.0, 0.0), radius=1.0)),
        (0.7, GaussianDensity(mean=(0.5, 0.0), stddev=0.2)),
    )),
}
NOISES = {
    "none": NoNoise(),
    "bounded": BoundedUniformNoise(sigma_b=0.3),
    "rademacher": RademacherNoise(sigma_b=0.2),
    "gaussian": GaussianNoise(stddev=0.5),
}


def _sampler(density, noise=NoNoise(), n=7):
    return NeighborhoodSampler(density, KernelSpec(TriangleKernel(), alpha=1.0, h=0.5),
                               LinearFunction(slope=(0.5, 1.5), intercept=0.1, bound=10.0),
                               noise, n, master_seed=29)


@pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES.keys())
@pytest.mark.parametrize("density", DENSITIES_2D.values(), ids=DENSITIES_2D.keys())
def test_neighborhood_is_a_row_of_the_full_batch(density, noise):
    sampler = _sampler(density, noise)
    rows = sampler.rows
    x = np.array([0.2, -0.1])
    for r in (0, 1, rows - 1, rows, 3 * rows + 5):
        b, k = divmod(r, rows)
        pts, unif, labels = sampler.batch(b)
        nb = sampler.neighborhood(x, r)
        assert np.array_equal(nb.points, pts[k])
        assert np.array_equal(nb.labels, labels[k])
        assert np.array_equal(nb.edges, sampler.edges(x, pts[k], unif[k]).astype(np.uint8))
        assert nb.seed_record.batch_index == b and nb.seed_record.row == k


@pytest.mark.parametrize("density", DENSITIES_2D.values(), ids=DENSITIES_2D.keys())
def test_prefix_stable_densities_draw_prefixes(density):
    # Ball and mixture make a second generator call after the first has
    # filled the whole shape, so their rows depend on the row count.
    k, rows, n = 3, 50, 7
    head = density.sample(rngmod.stream(5, rngmod.LATENT, 0), (k, n))
    full = density.sample(rngmod.stream(5, rngmod.LATENT, 0), (rows, n))
    assert np.array_equal(head, full[:k]) == density.prefix_stable
    assert density.prefix_stable == isinstance(density, (UniformCube, GaussianDensity))


def test_draws_request_only_the_rows_they_use(monkeypatch):
    requested = []
    for cls in (UniformCube, UniformBall):
        def counting(self, gen, shape=(), _original=cls.sample):
            requested.append(tuple(shape))
            return _original(self, gen, shape)
        monkeypatch.setattr(cls, "sample", counting)

    cube = _sampler(DENSITIES_2D["cube"], n=40)
    rows = cube.rows
    cube.neighborhood([0.5, 0.5], rows + 4)
    assert requested == [(5, 40)]
    requested.clear()
    _sampler(DENSITIES_2D["ball"], n=40).neighborhood([0.0, 0.0], 4)
    assert requested == [(rows, 40)]


@pytest.mark.parametrize("density", DENSITIES_2D.values(), ids=DENSITIES_2D.keys())
def test_batches_above_the_float_budget_rejected(density):
    # An unchecked request of this size exceeds the address space, so the
    # test commits no memory even if the check were missing.
    n = 10**15
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=0.5)
    regression = LinearFunction(slope=(0.5, 1.5), intercept=0.1, bound=10.0)
    with pytest.raises(ResourceBudgetError, match="budget"):
        sample_neighborhood(density, kernel, regression, NoNoise(), n, [0.0, 0.0], 0, 1)
    sampler = NeighborhoodSampler(density, kernel, regression, NoNoise(), n, 1)
    with pytest.raises(ResourceBudgetError, match="budget"):
        sampler.window_batch(sampler.window([0.0, 0.0]), 0, 0)


def test_batch_stop_beyond_the_batch_rejected():
    sampler = _sampler(DENSITIES_2D["cube"])
    with pytest.raises(InvalidInputError):
        sampler.batch(0, stop=sampler.rows + 1)


# ---------------------------------------------------------------------------
# full graphs
# ---------------------------------------------------------------------------


def test_full_graph_single_node():
    g = sample_full_graph(UniformCube(lo=(0.0,), hi=(1.0,)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=0.5), 1, seed=0)
    assert g.edges.shape == (0, 2)
    assert g.edge_list() == []


def test_full_graph_complete_when_window_covers_support():
    g = sample_full_graph(UniformCube(lo=(0.0,), hi=(1.0,)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=1.0), 5, seed=0)
    assert np.array_equal(g.edges, list(itertools.combinations(range(5), 2)))


def test_full_graph_symmetric_zero_diagonal():
    g = sample_full_graph(UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=0.2), 60, seed=3)
    # Each undirected edge appears once, as i < j, with no self-loops.
    assert len(g.edges) > 0
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert len(set(g.edge_list())) == len(g.edges)


def test_full_graph_edge_budget():
    # max_pairs budgets the cell list's candidate pairs, not all n(n-1)/2.
    density = UniformCube(lo=(0.0,), hi=(1.0,))
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.01)
    n = 100
    refusal = "candidate pairs exceeds the pair budget 0"
    with pytest.raises(ResourceBudgetError, match=refusal) as info:
        sample_full_graph(density, kernel, n, seed=0, max_pairs=0)
    candidates = int(str(info.value).split()[0])
    assert 0 < candidates < n * (n - 1) // 2
    with pytest.raises(ResourceBudgetError, match=f"^{candidates} candidate pairs"):
        sample_full_graph(density, kernel, n, seed=0, max_pairs=candidates - 1)
    g = sample_full_graph(density, kernel, n, seed=0, max_pairs=candidates)
    assert len(g.edges) <= candidates
    with pytest.raises(ResourceBudgetError, match="budget"):
        sample_full_graph(density, kernel, 2**40, seed=0)  # the latents alone: 8 TiB


def _brute_near_pairs(pts, radius):
    """Every pair i < j within ``radius``, in row-major order: the same
    per-axis sum, over all pairs."""
    i, j = np.triu_indices(pts.shape[0], 1)
    dist2 = np.zeros(i.size)
    for k in range(pts.shape[1]):
        dist2 += (pts[i, k] - pts[j, k]) ** 2
    keep = dist2 <= radius * radius
    return np.column_stack((i[keep], j[keep]))


def _near_pair_input(case, d):
    gen = np.random.default_rng(d)
    if case == "one point":
        return gen.random((1, d)), 0.5
    if case == "two points":
        return gen.random((2, d)), 0.5
    if case == "duplicates":
        return np.repeat(gen.random((12, d)), 3, axis=0)[gen.permutation(36)], 0.1
    if case == "radius far above the spread":
        return gen.random((60, d)), 1e6
    if case == "radius 1e-9":
        pts = gen.random((200, d))
        pts[1] = pts[0] + 5e-10 / math.sqrt(d)  # one pair inside the radius
        pts[2] = pts[0] + 2e-9 / math.sqrt(d)  # and one outside
        return pts, 1e-9
    if case == "gaussian with a far outlier":
        pts = gen.standard_normal((1500, d))
        pts[0] = 1e12
        return pts, 0.05
    raise AssertionError(case)


def _candidates(pts, radius) -> int:
    """The cell list's candidate count, read from its refusal."""
    with pytest.raises(ResourceBudgetError, match="candidate pairs exceeds the pair") as info:
        graph._near_pairs(pts, radius, max_pairs=-1)
    return int(str(info.value).split()[0])


NEAR_PAIR_CASES = ("one point", "two points", "duplicates", "radius far above the spread",
                   "radius 1e-9", "gaussian with a far outlier")


@pytest.mark.parametrize("case", NEAR_PAIR_CASES)
@pytest.mark.parametrize("d", (1, 2, 3, 6))
def test_near_pairs_match_all_pairs(case, d):
    pts, radius = _near_pair_input(case, d)
    n = pts.shape[0]
    got = graph._near_pairs(pts, radius, max_pairs=10**7)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, _brute_near_pairs(pts, radius))
    if case == "radius 1e-9":
        assert got.tolist() == [[0, 1]]
    if case == "radius far above the spread":
        assert len(got) == n * (n - 1) // 2
    if case == "gaussian with a far outlier":
        # ~10^13 cells per axis span the box, yet the outlier adds O(n)
        # candidates at most: the cloud alone has about as many.
        assert _candidates(pts, radius) <= 2 * _candidates(pts[1:], radius) + n


@pytest.mark.parametrize("d", (1, 2, 3))
def test_near_pairs_keep_a_pair_at_exactly_the_radius(d):
    # Dyadic coordinates make the squared distance exact: 0.375^2 + 0.5^2 = 0.625^2.
    pts = np.random.default_rng(d).random((40, d))
    step = np.array([0.375, 0.5, 0.0][:d])
    pts[7] = 0.25
    pts[23] = pts[7] + step
    radius = float(np.sqrt(np.sum(step**2)))
    assert radius in (0.375, 0.625)
    for r, inside in ((radius, True), (np.nextafter(radius, 0.0), False)):
        got = graph._near_pairs(pts, r, max_pairs=10**6)
        assert ([7, 23] in got.tolist()) is inside
        assert np.array_equal(got, _brute_near_pairs(pts, r))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_near_pairs_with_a_small_key_space(d, monkeypatch):
    # Gaps closed and cells merged in twos until the keys fit: same pairs.
    monkeypatch.setattr(graph, "_KEY_SPACE", 64)
    pts = np.random.default_rng(d).random((300, d)) * 100.0
    pts[0] = 1e9
    got = graph._near_pairs(pts, 0.3 * d, max_pairs=10**6)
    assert np.array_equal(got, _brute_near_pairs(pts, 0.3 * d))


def test_near_pairs_count_every_candidate():
    # 2000 equal points share one cell: all n(n-1)/2 pairs are candidates.
    assert _candidates(np.zeros((2000, 2)), 1.0) == 1_999_000


def _dense_full_graph(density, kernel, n, seed):
    """Reference sampler: the live-pair rule, row by row over all pairs, with
    no cell list: the pairs with k > 0 read the edge stream in turn."""
    pts = density.sample(rngmod.stream(seed, rngmod.LATENT, 0), (n,))
    gen = rngmod.stream(seed, rngmod.EDGE, 0)
    rows = [np.empty((0, 2), dtype=np.intp)]
    for i in range(n - 1):
        probs = kernel.edge_probabilities(pts[i], pts[i + 1:])
        live = np.flatnonzero(probs > 0.0)
        j = live[gen.random(live.size) < probs[live]] + i + 1
        rows.append(np.column_stack([np.full(j.shape, i), j]))
    return pts, np.concatenate(rows)


def _density(kind, d):
    zeros = (0.0,) * d
    return {
        "cube": UniformCube(lo=zeros, hi=(1.0,) * d),
        "ball": UniformBall(center=zeros, radius=1.0),
        "gaussian": GaussianDensity(mean=zeros, stddev=0.5),
        "mixture": MixtureDensity(components=(
            (0.3, UniformBall(center=zeros, radius=1.0)),
            (0.7, GaussianDensity(mean=(0.5,) + zeros[1:], stddev=0.2)),
        )),
    }[kind]


FULL_GRAPH_KERNELS = (IndicatorKernel(), TriangleKernel(), HalfPlateauKernel())
# (n, h): no pair within reach, some pairs, every pair a candidate.
FULL_GRAPH_CASES = ((1, 0.3), (2, 0.3), (37, 1e-9), (37, 0.3), (37, 100.0), (500, 0.3))


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("kind", ("cube", "ball", "gaussian", "mixture"))
def test_full_graph_matches_dense_reference(kind, d, monkeypatch):
    density = _density(kind, d)
    seen = set()
    for base, alpha, (n, h) in itertools.product(FULL_GRAPH_KERNELS, (1.0, 0.5),
                                                 FULL_GRAPH_CASES):
        kernel = KernelSpec(base, alpha=alpha, h=h)
        pts, edges = _dense_full_graph(density, kernel, n, seed=n + d)
        if n > 1:
            complete = len(edges) == n * (n - 1) // 2
            seen.add("complete" if complete else "partial" if len(edges) else "empty")
        for chunk in (1, 7, graph._PAIR_CHUNK) if n < 100 else (graph._PAIR_CHUNK,):
            with monkeypatch.context() as m:
                m.setattr(graph, "_PAIR_CHUNK", chunk)
                g = sample_full_graph(density, kernel, n, seed=n + d)
            assert np.array_equal(g.points, pts)
            assert g.edges.shape == edges.shape and np.array_equal(g.edges, edges)
    assert seen == {"empty", "partial", "complete"}


def test_full_graph_matches_dense_reference_across_default_chunks():
    density = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    kernel = KernelSpec(TriangleKernel(), alpha=0.5, h=0.16)
    n = 1500  # about 7e4 live pairs: their uniforms run past one default chunk
    pts, edges = _dense_full_graph(density, kernel, n, seed=4)
    g = sample_full_graph(density, kernel, n, seed=4)
    assert np.array_equal(g.points, pts) and np.array_equal(g.edges, edges)
    live = sum(np.count_nonzero(kernel.edge_probabilities(pts[i], pts[i + 1:]) > 0.0)
               for i in range(n - 1))
    assert live > graph._PAIR_CHUNK


def test_full_graph_in_twelve_dimensions_matches_dense_reference():
    # Cells cut only the first three axes; the other nine count in the
    # distance check alone.
    density = UniformCube(lo=(0.0,) * 12, hi=(1.0,) * 12)
    kernel = KernelSpec(IndicatorKernel(), alpha=0.5, h=0.6)
    pts, edges = _dense_full_graph(density, kernel, 1000, seed=5)
    g = sample_full_graph(density, kernel, 1000, seed=5)
    assert len(edges) > 0 and np.array_equal(g.points, pts) and np.array_equal(g.edges, edges)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_full_graph_keeps_pairs_at_the_support_radius(d):
    # With h equal to the distance of pair (0, 1), k = alpha exactly, so
    # the indicator kernel connects the pair whatever the cell list's rounding.
    density = UniformCube(lo=(0.0,) * d, hi=(1.0,) * d)
    for seed in range(20):
        pts = density.sample(rngmod.stream(seed, rngmod.LATENT, 0), (30,))
        h = float(np.sqrt(np.sum((pts[1] - pts[0]) ** 2)))
        g = sample_full_graph(density, KernelSpec(IndicatorKernel(), alpha=1.0, h=h),
                              30, seed=seed)
        assert (0, 1) in g.edge_list()


def test_full_graph_matches_dense_reference_across_default_candidate_chunks():
    density = UniformCube(lo=(0.0,), hi=(1.0,))
    kernel = KernelSpec(TriangleKernel(), alpha=0.5, h=0.05)
    n = 1500  # about 1.1e5 candidate pairs: two default chunks
    pts, edges = _dense_full_graph(density, kernel, n, seed=6)
    g = sample_full_graph(density, kernel, n, seed=6)
    assert np.array_equal(g.points, pts) and np.array_equal(g.edges, edges)
    near = np.sum(np.abs(pts[:, None, 0] - pts[None, :, 0]) <= kernel.support_radius)
    assert (near - n) // 2 > graph._PAIR_CHUNK


def test_full_graph_edge_rule_is_strict_at_a_tie():
    # An indicator kernel has k = alpha on its support, so with alpha set to
    # the uniform a pair reads, U < k fails by a tie; one ulp more connects.
    # At h = 100 every pair is live, so pair (i, j) reads the uniform at its
    # row-major offset among all n(n-1)/2 pairs.
    density = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    n = 6
    for seed in range(5):
        i, j = seed % 3, 3 + seed % 3
        offset = i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)
        u = float(rngmod.stream(seed, rngmod.EDGE, 0).random(n * (n - 1) // 2)[offset])
        for alpha, connected in ((u, False), (np.nextafter(u, 1.0), True)):
            g = sample_full_graph(density, KernelSpec(IndicatorKernel(), alpha=alpha, h=100.0),
                                  n, seed=seed)
            assert ((i, j) in g.edge_list()) is connected


def test_full_graph_pair_at_the_support_radius_draws_no_uniform(monkeypatch):
    # Dyadic points: pair (0, 1) lies exactly h = 0.625 apart, so it is a
    # candidate with triangle k = 0.  The live pairs after it read the
    # stream from its first uniform on; a uniform spent on (0, 1) would
    # shift every one of them.
    density = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    pts = np.vstack([[0.0, 0.0], [0.375, 0.5],
                     np.random.default_rng(3).integers(0, 64, (10, 2)) / 256.0])
    monkeypatch.setattr(UniformCube, "sample", lambda self, gen, shape: pts.copy())
    kernel = KernelSpec(TriangleKernel(), alpha=0.5, h=0.625)
    n = len(pts)
    assert [0, 1] in graph._near_pairs(pts, kernel.support_radius, max_pairs=100).tolist()
    probs = np.concatenate([kernel.edge_probabilities(pts[i], pts[i + 1:])
                            for i in range(n - 1)])
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    live = probs > 0.0
    assert np.flatnonzero(~live).tolist() == [0]  # (0, 1) alone
    u = rngmod.stream(7, rngmod.EDGE, 0).random(len(pairs))
    expected = pairs[live][u[:-1] < probs[live]]
    shifted = pairs[live][u[1:] < probs[live]]
    assert not np.array_equal(expected, shifted)
    g = sample_full_graph(density, kernel, n, seed=7)
    assert np.array_equal(g.edges, expected)


def test_full_graph_edges_nest_across_alpha():
    # Common random numbers: the live pairs, hence their uniforms, are the
    # same at every alpha, so U < alpha k only loses edges as alpha falls.
    density = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    graphs = [sample_full_graph(density, KernelSpec(TriangleKernel(), alpha=alpha, h=0.1),
                                400, seed=11) for alpha in (0.5, 1.0)]
    half, full = (set(g.edge_list()) for g in graphs)
    assert 0 < len(half) < len(full) and half <= full


def test_neighborhood_edge_rule_is_strict_at_a_tie():
    density = UniformCube(lo=(0.0,), hi=(1.0,))
    x, n = [0.5], 8
    for seed in range(5):
        sampler = NeighborhoodSampler(density, KernelSpec(IndicatorKernel(), alpha=1.0, h=100.0),
                                      ConstantFunction(1.0), NoNoise(), n, seed)
        _, unif, _ = sampler.batch(0, stop=1)
        node = seed % n
        u = float(unif[0, node])
        for alpha, connected in ((u, 0), (np.nextafter(u, 1.0), 1)):
            kernel = KernelSpec(IndicatorKernel(), alpha=alpha, h=100.0)
            nb = sample_neighborhood(density, kernel, ConstantFunction(1.0), NoNoise(), n, x,
                                     0, seed)
            assert nb.edges[node] == connected


def _mean_pair_connection(h: float, seed: int = 12345, pairs: int = 1_000_000) -> float:
    # MC estimate of E[ k(X, Z) ] for X, Z uniform on the unit square
    gen = np.random.default_rng(seed)
    a = gen.random((pairs, 2))
    b = gen.random((pairs, 2))
    d2 = np.sum((a - b) ** 2, axis=1)
    return float(np.mean(d2 <= h * h))


def test_full_graph_mean_degree_log_n():
    # tune h so (n-1) E[k] = log n, then check realized mean degree over seeds
    n = 1000
    target = math.log(n) / (n - 1)
    lo_h, hi_h = 0.01, 0.2
    for _ in range(40):
        mid = 0.5 * (lo_h + hi_h)
        if _mean_pair_connection(mid) < target:
            lo_h = mid
        else:
            hi_h = mid
    h = 0.5 * (lo_h + hi_h)
    dens = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=h)
    degrees = []
    for seed in range(20):
        g = sample_full_graph(dens, kernel, n, seed=seed)
        degrees.append(2.0 * len(g.edges) / n)
    assert abs(np.mean(degrees) - math.log(n)) <= 0.15 * math.log(n)


# ---------------------------------------------------------------------------
# ratio weights
# ---------------------------------------------------------------------------


def test_r_subset_examples():
    assert r_subset((1, 0, 1), ()) == 0.5
    assert r_subset((1, 0, 1), (0,)) == 0.5
    assert r_subset((0, 0, 0), ()) == 0.0


def test_r_subset_validation():
    with pytest.raises(InvalidInputError):
        r_subset((1, 0, 1), (3,))
    with pytest.raises(InvalidInputError):
        r_subset((1, 0, 1), (0, 0))


def test_r_subset_monotone_in_added_index(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        edges = rng.integers(0, 2, size=n)
        base = [int(i) for i in rng.permutation(n)[: rng.integers(0, n - 1)]]
        j = next(i for i in range(n) if i not in base)
        r_base = r_subset(edges, base)
        r_more = r_subset(edges, base + [j])
        if edges[j] == 1 and (base or edges.sum() > 0):
            assert r_more == r_base  # the decoupling identity for singletons
        else:
            assert r_more <= r_base or r_base == 0.0


def test_sum_identity_exact_all_patterns():
    # fsum of a_i * R_{i} equals the any-edge indicator exactly
    n = 10
    for mask in range(1 << n):
        edges = [(mask >> i) & 1 for i in range(n)]
        total = math.fsum(edges[i] * r_subset(edges, (i,)) for i in range(n))
        assert total == float(sum(edges) > 0)


def test_decoupling_selftest_small():
    assert decoupling_selftest(1).passed
    assert decoupling_selftest(3).passed
    rep = decoupling_selftest(12)
    assert rep.passed
    assert rep.patterns_checked == 4096


def _fraction_selftest(n):
    """Reference selftest: the per-pattern loop in exact rationals that
    ``decoupling_selftest`` replaced, reading denominators the same way."""
    patterns = 0
    checks = 0
    for mask in range(1 << n):
        edges = np.array([(mask >> i) & 1 for i in range(n)])
        total = int(edges.sum())
        patterns += 1
        for i in range(n):
            js = [()]
            if n >= 2:
                js.append(((i + 1) % n,))
            if n >= 3:
                js.append(((i + 1) % n, (i + 2) % n))
            for j_set in js:
                checks += 1
                if edges[i] == 0:
                    continue
                lhs = graph._r_denominator(total, edges, j_set)
                rhs = graph._r_denominator(total, edges, tuple(sorted((i, *j_set))))
                lhs_val = Fraction(1, int(lhs)) if lhs > 0 else Fraction(0)
                rhs_val = Fraction(1, int(rhs)) if rhs > 0 else Fraction(0)
                if lhs_val != rhs_val:
                    return DecouplingReport(
                        n, patterns, checks, False,
                        (tuple(edges.tolist()), (i,), j_set, float(lhs_val), float(rhs_val)),
                    )
        checks += 1
        acc = Fraction(0)
        for i in range(n):
            if edges[i]:
                acc += Fraction(1, int(graph._r_denominator(total, edges, (i,))))
        if acc != Fraction(int(total > 0)):
            return DecouplingReport(
                n, patterns, checks, False, (tuple(edges.tolist()), "sum", float(acc)),
            )
    return DecouplingReport(n, patterns, checks, True)


def test_decoupling_selftest_matches_fraction_reference():
    for n in range(1, 13):
        assert decoupling_selftest(n) == _fraction_selftest(n)


def test_decoupling_selftest_at_the_budget():
    rep = decoupling_selftest(16)
    assert rep.passed and rep.first_counterexample is None
    assert rep.patterns_checked == 1 << 16
    assert rep.identity_checks == (1 << 16) * (16 * 3 + 1)


WRONG_DENOMINATORS = {
    # every R of a three-edge pattern shifted alike: the identities hold,
    # the telescoping sum fails at the first such pattern
    "three_edge_patterns": lambda total, subset: total == 3,
    # pairs only: R_J differs from R_{i} u J for |J| = 2
    "pairs_plus_one": lambda total, subset: int(len(subset) == 2),
    # singletons of three-edge patterns only: R_{} differs from R_{i}
    "three_edge_singletons": lambda total, subset: (total == 3) * (len(subset) == 1),
    # the identities hold with denominators above n, and the sum fails
    "plus_total_squared": lambda total, subset: total * total,
    # the same with a least common multiple beyond 64-bit integers
    "plus_huge_multiple": lambda total, subset: total << 55,
}


@pytest.mark.parametrize("wrong", WRONG_DENOMINATORS.values(), ids=WRONG_DENOMINATORS.keys())
def test_decoupling_selftest_finds_the_reference_counterexample(wrong, monkeypatch):
    right = graph._r_denominator
    monkeypatch.setattr(graph, "_r_denominator",
                        lambda total, edges, subset: right(total, edges, subset)
                        + wrong(total, subset))
    for n in range(1, 9):
        rep = decoupling_selftest(n)
        assert rep == _fraction_selftest(n)
        if n >= 4:
            assert not rep.passed


def test_decoupling_selftest_budget():
    with pytest.raises(ResourceBudgetError):
        decoupling_selftest(17)


def test_decoupling_known_case():
    # pattern (1,0,1): excluding index 0 against the empty set, both weights 1/2
    edges = (1, 0, 1)
    assert r_subset(edges, ()) * edges[0] == r_subset(edges, (0,)) * edges[0] == 0.5


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_export_schemas(tmp_path):
    g = sample_full_graph(UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=0.3), 20, seed=5)
    epath = tmp_path / "edges.csv"
    ppath = tmp_path / "points.csv"
    export_edges_csv(g, epath)
    export_points_csv(g.points, ppath)
    elines = epath.read_text().splitlines()
    edges = set(g.edge_list())
    assert elines[0] == "src,dst"
    for line in elines[1:]:
        i, j = map(int, line.split(","))
        assert 0 <= i < j < 20
        assert (i, j) in edges
    assert len(elines) - 1 == len(g.edges)
    plines = ppath.read_text().splitlines()
    assert plines[0] == "node,x0,x1"
    assert len(plines) == 21

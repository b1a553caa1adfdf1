import math

import numpy as np
import pytest

from conftest import unit_interval_scenario
from gnwlab import rng as rngmod
from gnwlab.errors import InvalidInputError, ResourceBudgetError
from gnwlab.graph import (
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
from gnwlab.montecarlo import run_replications


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

    requested.clear()
    cfg = unit_interval_scenario(n=40)
    run_replications(cfg, [0.5], rngmod.batch_rows(40, 1) + 3)
    assert requested == [(rngmod.batch_rows(40, 1), 40), (3, 40)]


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
    assert g.adjacency.shape == (1, 1)
    assert g.adjacency[0, 0] == 0


def test_full_graph_complete_when_window_covers_support():
    g = sample_full_graph(UniformCube(lo=(0.0,), hi=(1.0,)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=1.0), 5, seed=0)
    expected = np.ones((5, 5), dtype=np.uint8) - np.eye(5, dtype=np.uint8)
    assert np.array_equal(g.adjacency, expected)


def test_full_graph_symmetric_zero_diagonal():
    g = sample_full_graph(UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=0.2), 60, seed=3)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0)


def test_full_graph_edge_budget():
    with pytest.raises(ResourceBudgetError):
        sample_full_graph(UniformCube(lo=(0.0,), hi=(1.0,)),
                          KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1),
                          100, seed=0, max_pairs=10)


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
        degrees.append(float(g.adjacency.sum()) / n)
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
    assert elines[0] == "src,dst"
    for line in elines[1:]:
        i, j = map(int, line.split(","))
        assert 0 <= i < j < 20
        assert g.adjacency[i, j] == 1
    assert len(elines) - 1 == int(g.adjacency.sum()) // 2
    plines = ppath.read_text().splitlines()
    assert plines[0] == "node,x0,x1"
    assert len(plines) == 21

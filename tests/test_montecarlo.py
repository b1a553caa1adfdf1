import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import IDENTITY, unit_interval_scenario
from gnwlab import montecarlo
from gnwlab import rng as rngmod
from gnwlab.errors import InvalidInputError, ResourceBudgetError
from gnwlab.estimators import predict_rows
from gnwlab.graph import NeighborhoodSampler
from gnwlab.model import (
    BoundedUniformNoise,
    ConstantFunction,
    CuspFunction,
    GaussianDensity,
    GaussianNoise,
    HalfPlateauKernel,
    IndicatorKernel,
    KernelSpec,
    LinearFunction,
    MixtureDensity,
    NoNoise,
    RademacherNoise,
    SinusoidFunction,
    TriangleKernel,
    UniformBall,
    UniformCube,
)
from gnwlab.montecarlo import (
    PredictionBatch,
    _map_replications,
    edge_resample_mean,
    estimate_integrated_risk,
    estimate_moments,
    estimate_pointwise_risk,
    estimate_tail,
    exact_small_n_oracle,
    oracle_mean_over_latents,
    run_replications,
)
from gnwlab.scenario import QuerySpec, ScenarioConfig, ScenarioConstants
from gnwlab.theory import proxy_gap, smoothed_value

Q10 = 0.8**10  # empty-neighborhood probability at c_n = 0.2, n = 10


def test_single_replication_reproducible():
    cfg = unit_interval_scenario(n=12)
    a = run_replications(cfg, [0.5], 1)
    b = run_replications(cfg, [0.5], 1)
    assert a.values[0] == b.values[0] and a.masses[0] == b.masses[0]


def test_thread_count_invariance():
    cfg = unit_interval_scenario(n=10)
    one = run_replications(cfg, [0.5], 150_000, threads=1)
    two = run_replications(cfg, [0.5], 150_000, threads=2)
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.masses, two.masses)


# (n, per_query, batch rows at xs[0]): at n = 20000, h = 0.05 a row holds
# about 2000 window nodes and batches hold 10 rows (18 at x = 0.99); at n = 50
# they start at 64 rows and double.  Either way the query slices span
# several batches and end inside one.
DRIVER_LAYOUTS = [(20000, 25, [10, 10, 10]), (50, 200, [64, 128, 256])]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n,per_query,rows", DRIVER_LAYOUTS, ids=["n20000", "n50"])
def test_driver_matches_window_batches_across_batch_boundaries(n, per_query, rows, threads):
    cfg = unit_interval_scenario(n=n, h=0.05, regression=IDENTITY,
                                 noise=BoundedUniformNoise(sigma_b=0.5))
    xs = np.array([[0.1], [0.35], [0.5], [0.72], [0.9], [0.99]])
    batch = _map_replications(cfg, xs, per_query, threads=threads)
    assert len(batch) == len(xs) * per_query
    sampler = NeighborhoodSampler(cfg.density, cfg.kernel, cfg.regression, cfg.noise,
                                  cfg.n, cfg.master_seed)
    for q, x in enumerate(xs):
        window = sampler.window(x)
        layout = list(window.batches(per_query))
        if q == 0:
            assert [r for _, _, r in layout] == rows
        assert len(layout) > 1 and sum(r for _, _, r in layout) > per_query
        for b, lo, k in layout:
            w = sampler.window_batch(window, q, b)
            values, masses = predict_rows(w.labels, w.edges)
            used = min(k, per_query - lo)
            t = q * per_query + lo
            assert np.array_equal(batch.values[t:t + used], values[:used])
            assert np.array_equal(batch.masses[t:t + used], masses[:used])


def _reference_window_batch(sampler, window, query_index, batch_index):
    """(labels, edges) of one window batch, drawn and evaluated on its own:
    the whole batch's counts, window points, edge uniforms and noise from its
    stream, then its labels and edges padded to its largest count."""
    rows = window.batch_rows(batch_index)
    gen = rngmod.stream(sampler.master_seed, rngmod.WINDOW, query_index, batch_index)
    counts = gen.binomial(sampler.n, window.mass, size=rows)
    total, m = int(counts.sum()), int(counts.max())
    points = sampler.density.window_sample(gen, window.x, sampler.kernel.support_radius, total)
    unif = gen.random(total)
    labels = sampler.regression.evaluate(points) + sampler.noise.sample(gen, (total,))
    used = np.arange(m) < counts[:, None]
    padded_edges = np.zeros((rows, m))
    padded_edges[used] = sampler.edges(window.x, points, unif)
    padded_labels = np.zeros((rows, m))
    padded_labels[used] = labels
    return padded_labels, padded_edges


def _reference_driver(cfg, xs, per_query):
    """The driver's predictions, one window batch at a time."""
    sampler = NeighborhoodSampler(cfg.density, cfg.kernel, cfg.regression, cfg.noise,
                                  cfg.n, cfg.master_seed)
    values, masses = [], []
    for q, x in enumerate(xs):
        window = sampler.window(x)
        for b, lo, rows in window.batches(per_query):
            labels, edges = _reference_window_batch(sampler, window, q, b)
            used = min(rows, per_query - lo)
            v, m = predict_rows(labels[:used], edges[:used])
            values.append(v)
            masses.append(m)
    return np.concatenate(values), np.concatenate(masses)


@pytest.fixture
def pool_jobs(monkeypatch):
    """The jobs that each pool of the Monte Carlo driver runs, one list per pool."""
    seen = []

    class Recording(ThreadPoolExecutor):
        def map(self, fn, jobs):
            seen.append(list(jobs))
            return super().map(fn, seen[-1])

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    return seen


def _densities(d):
    cube = UniformCube(lo=(0.0,) * d, hi=(1.0,) * d)
    ball = UniformBall(center=(0.5,) * d, radius=0.6)
    gauss = GaussianDensity(mean=(0.5,) * d, stddev=0.3)
    return [cube, ball, gauss, MixtureDensity(components=((0.6, cube), (0.4, gauss)))]


KERNELS = [IndicatorKernel(), TriangleKernel(), HalfPlateauKernel()]
NOISES = [NoNoise(), BoundedUniformNoise(sigma_b=0.5), RademacherNoise(sigma_b=0.3),
          GaussianNoise(stddev=0.4)]


def _regressions(d):
    return [ConstantFunction(0.7),
            LinearFunction(slope=(0.9, -1.3, 0.4)[:d], intercept=0.2, bound=3.0),
            SinusoidFunction(amplitude=1.0, frequency=1.5, phase=0.2),
            CuspFunction(scale=1.1, exponent=0.5, anchor=(0.4,) * d, bound=0.8)]


# Every density in every dimension; the kernels, noises and regressions
# rotate so that each meets every dimension.
DRIVER_SCENARIOS = [(d, j) for d in (1, 2, 3) for j in range(4)]


@pytest.mark.parametrize("budget", [None, 1, 1 << 40], ids=["default", "batch", "all"])
@pytest.mark.parametrize("d,j", DRIVER_SCENARIOS,
                         ids=[f"d{d}-{j}" for d, j in DRIVER_SCENARIOS])
def test_driver_matches_batch_by_batch_reference(d, j, budget, pool_jobs, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(rngmod, "_WINDOW_ELEMENT_BUDGET", budget)
    dens = _densities(d)[j]
    cfg = ScenarioConfig(
        dimension=d, n=300, density=dens,
        kernel=KernelSpec(KERNELS[(j + d) % 3], alpha=0.8, h=0.3),
        regression=_regressions(d)[(j + 2 * d) % 4], noise=NOISES[(j + d) % 4],
        constants=ScenarioConstants(), query=QuerySpec(points=((0.5,) * d,)),
        replications=100, master_seed=20261021 + d,
    )
    xs = dens.sample(np.random.default_rng(d + 10 * j), (3,))
    xs[0] = 0.5
    sampler = NeighborhoodSampler(dens, cfg.kernel, cfg.regression, cfg.noise, cfg.n, 0)
    first = [r for _, _, r in sampler.window(xs[0]).batches(100)]
    if budget == 1:  # one row per batch, so every run ends on a batch boundary
        assert first == [1] * 100
    else:  # 64 ends on a batch boundary, 100 inside the second batch
        assert first[0] == 64 and len(first) == 2
    for per_query in (64,) if budget == 1 else (64, 100):
        want_values, want_masses = _reference_driver(cfg, xs, per_query)
        batches = sum(len(list(sampler.window(x).batches(per_query))) for x in xs)
        for threads in (1, 2, 3):
            got = _map_replications(cfg, xs, per_query, threads=threads)
            assert got.values.tobytes() == want_values.tobytes()
            assert got.masses.tobytes() == want_masses.tobytes()
            jobs = pool_jobs.pop()
            assert sum(len(group) for _, group in jobs) == batches
            if budget == 1:
                assert len(jobs) == batches
            elif budget is not None:
                assert len(jobs) == 1


def test_pool_jobs_are_groups_of_batches_within_the_budget(pool_jobs):
    # The benchmark's sweep at its smallest bandwidth: 1000 query points of 50
    # replications, each one batch of 64 rows of about 8 window nodes.
    cfg = unit_interval_scenario(n=200, h=0.02, integrated=(1000, 50))
    estimate_integrated_risk(cfg, threads=2)
    jobs, = pool_jobs
    budget = rngmod._WINDOW_ELEMENT_BUDGET
    sizes = [sum(window.batch_rows(b) * rngmod.window_row_elements(window.expected, 1)
                 for window, _, b, _ in group) for _, group in jobs]
    assert sum(len(group) for _, group in jobs) == 1000
    assert all(size <= budget or len(group) == 1 for size, (_, group) in zip(sizes, jobs))
    assert len(jobs) <= math.ceil(sum(sizes) / budget) + 1


def test_query_predictions_do_not_depend_on_other_queries():
    cfg = unit_interval_scenario(n=500, h=0.05, regression=IDENTITY,
                                 noise=GaussianNoise(stddev=0.3))
    xs = np.array([[0.2], [0.5], [0.8]])
    base = _map_replications(cfg, xs, 40, threads=1)
    moved = _map_replications(cfg, np.array([[0.2], [0.03], [0.8]]), 40, threads=2)
    for q in (0, 2):
        s = slice(q * 40, (q + 1) * 40)
        assert np.array_equal(base.values[s], moved.values[s])
        assert np.array_equal(base.masses[s], moved.masses[s])
    assert not np.array_equal(base.values[40:80], moved.values[40:80])
    # nor on how many replications are asked for
    longer = _map_replications(cfg, xs[:1], 75, threads=2)
    assert np.array_equal(longer.values[:40], base.values[:40])


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    cfg = unit_interval_scenario(n=10, integrated=(10, 10))
    with pytest.raises(InvalidInputError, match="threads"):
        run_replications(cfg, [0.5], 100, threads=threads)
    with pytest.raises(InvalidInputError, match="threads"):
        estimate_pointwise_risk(cfg, [0.5], 100, threads=threads)
    with pytest.raises(InvalidInputError, match="threads"):
        estimate_integrated_risk(cfg, threads=threads)


def test_constant_function_predictions_binary():
    cfg = unit_interval_scenario(n=10)
    batch = run_replications(cfg, [0.5], 5000)
    assert set(np.unique(batch.values)) <= {0.0, 1.0}


def test_empty_frequency_binomial():
    cfg = unit_interval_scenario(n=10)
    batch = run_replications(cfg, [0.5], 100_000)
    rep = estimate_moments(batch, 1.0)
    gate = 3.0 * math.sqrt(Q10 * (1 - Q10) / 100_000)
    assert abs(rep.empty_frequency - Q10) <= gate


def test_moments_degenerate_and_two_point():
    preds = PredictionBatch(values=np.full(200, 0.7), masses=np.ones(200))
    rep = estimate_moments(preds, 0.7)
    assert rep.variance_proxy == 0.0

    cfg = unit_interval_scenario(n=10)
    batch = run_replications(cfg, [0.5], 100_000)
    rep2 = estimate_moments(batch, 1.0)
    # predictions are 1 except on empty neighborhoods, so the proxy is the
    # empty probability
    assert abs(rep2.variance_proxy - Q10) <= 5.0 * rep2.se_variance_proxy


def test_proxy_gap_matches_sample_identity():
    cfg = unit_interval_scenario(n=10)
    batch = run_replications(cfg, [0.5], 100_000)
    b_n = 1.0
    rep = estimate_moments(batch, b_n)
    emp_gap = rep.variance_proxy - rep.standard_variance
    theory = proxy_gap(b_n, 0.2, 10)
    se_gap = 2.0 * abs(rep.mean - b_n) * rep.se_mean
    assert abs(emp_gap - theory) <= 5.0 * se_gap
    assert emp_gap == pytest.approx((rep.mean - b_n) ** 2, rel=1e-9)


def test_moments_requires_hundred():
    preds = PredictionBatch(values=np.zeros(50), masses=np.ones(50))
    with pytest.raises(InvalidInputError):
        estimate_moments(preds, 0.0)


def test_tail_examples():
    cfg = unit_interval_scenario(n=10, noise=GaussianNoise(stddev=0.3))
    b_n, _ = smoothed_value(cfg.density, cfg.kernel, cfg.regression, [0.5])
    batch = run_replications(cfg, [0.5], 20_000)
    tails = estimate_tail(batch, b_n, [1e-12])
    assert tails[0].frequency == pytest.approx(1.0, abs=1e-3)

    # beyond the prediction range, only empty neighborhoods can exceed
    cfg2 = unit_interval_scenario(n=10, noise=BoundedUniformNoise(sigma_b=0.5))
    b2, _ = smoothed_value(cfg2.density, cfg2.kernel, cfg2.regression, [0.5])
    batch2 = run_replications(cfg2, [0.5], 20_000)
    rep2 = estimate_moments(batch2, b2)
    delta = 2.0 * (cfg2.regression.bound + cfg2.noise.bound) + 0.5
    tails2 = estimate_tail(batch2, b2, [delta])
    expected = rep2.empty_frequency * float(abs(b2) >= delta)
    assert tails2[0].frequency == pytest.approx(expected, abs=1e-12)


def test_tail_validation():
    preds = PredictionBatch(values=np.zeros(200), masses=np.ones(200))
    with pytest.raises(InvalidInputError):
        estimate_tail(preds, 0.0, [0.5, 0.25])
    with pytest.raises(InvalidInputError):
        estimate_tail(preds, 0.0, [-1.0])


def test_pointwise_risk_zero_function_exact():
    cfg = unit_interval_scenario(n=10, regression=ConstantFunction(0.0))
    rep = estimate_pointwise_risk(cfg, [0.5], 2000)
    assert rep.mse == 0.0


def test_pointwise_risk_constant_function():
    cfg = unit_interval_scenario(n=10)
    rep = estimate_pointwise_risk(cfg, [0.5], 100_000)
    assert abs(rep.mse - Q10) <= 5.0 * rep.se_mse
    # risk decomposition: mse <= 2 (variance proxy + squared bias proxy)
    b_n = rep.b_n_reference
    bias_sq = (b_n - 1.0) ** 2
    assert rep.mse <= 2.0 * (rep.variance_proxy + bias_sq) + 5.0 * rep.se_mse


def test_integrated_risk_zero_function():
    cfg = unit_interval_scenario(n=10, regression=ConstantFunction(0.0),
                                 integrated=(20, 10))
    rep = estimate_integrated_risk(cfg)
    assert rep.mse == 0.0


def test_integrated_risk_dominates_min_pointwise():
    cfg = unit_interval_scenario(n=20, regression=IDENTITY,
                                 noise=GaussianNoise(stddev=0.5), integrated=(40, 25))
    mise = estimate_integrated_risk(cfg)
    best = min(
        estimate_pointwise_risk(cfg, [x], 1000).mse for x in (0.3, 0.5, 0.7)
    )
    assert mise.mse >= best - 2.58 * (mise.se_mse + 0.05)


def test_integrated_risk_validation():
    cfg = unit_interval_scenario(n=10, integrated=(5, 10))
    with pytest.raises(InvalidInputError):
        estimate_integrated_risk(cfg)
    with pytest.raises(InvalidInputError, match="integrated query"):
        estimate_integrated_risk(unit_interval_scenario(n=10))


def test_integrated_risk_thread_invariance():
    cfg = unit_interval_scenario(n=50, regression=IDENTITY,
                                 noise=GaussianNoise(stddev=1.0), integrated=(30, 20))
    a = estimate_integrated_risk(cfg, threads=1)
    b = estimate_integrated_risk(cfg, threads=2)
    assert (a.mse, a.se_mse, a.mean, a.empty_frequency) == \
        (b.mse, b.se_mse, b.mean, b.empty_frequency)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_oracle_single_point():
    k = KernelSpec(IndicatorKernel(), alpha=0.3, h=1.0)
    res = exact_small_n_oracle(np.array([[0.5]]), np.array([5.0]), k, [0.5])
    assert res.exact_expectation_given_points == pytest.approx(1.5, rel=1e-14)
    assert res.exact_second_moment_given_points == pytest.approx(0.3 * 25.0, rel=1e-14)


def test_oracle_two_points_hand_enumerated():
    k = KernelSpec(IndicatorKernel(), alpha=0.5, h=1.0)
    res = exact_small_n_oracle(np.array([[0.5], [0.5]]), np.array([2.0, 4.0]), k, [0.5])
    assert res.exact_expectation_given_points == pytest.approx(2.25, rel=1e-14)


def test_oracle_constant_function_closed_form():
    # equal connection probabilities and constant labels: E = 1 - (1 - c)^n
    c = 0.37
    n = 9
    k = KernelSpec(IndicatorKernel(), alpha=c, h=10.0)
    pts = np.linspace(0.1, 0.9, n)[:, None]
    res = exact_small_n_oracle(pts, np.ones(n), k, [0.5])
    assert res.exact_expectation_given_points == pytest.approx(1 - (1 - c) ** n, rel=1e-12)


def test_oracle_second_moment_dominates_mean_square(rng):
    k = KernelSpec(IndicatorKernel(), alpha=0.6, h=0.3)
    for _ in range(20):
        pts = rng.random((8, 1))
        labels = rng.normal(size=8)
        res = exact_small_n_oracle(pts, labels, k, [0.5])
        assert res.exact_second_moment_given_points >= \
            res.exact_expectation_given_points**2 - 1e-12


def test_oracle_budget():
    k = KernelSpec(IndicatorKernel(), alpha=0.5, h=1.0)
    with pytest.raises(ResourceBudgetError):
        exact_small_n_oracle(np.zeros((17, 1)), np.zeros(17), k, [0.0])


def test_oracle_vs_edge_resampling():
    # fixed latent points: direct edge Monte Carlo agrees with the enumeration
    gen = np.random.default_rng(5)
    pts = gen.random((12, 1))
    labels = np.sin(pts[:, 0])
    k = KernelSpec(IndicatorKernel(), alpha=0.7, h=0.25)
    oracle = exact_small_n_oracle(pts, labels, k, [0.5])
    mc_mean, se = edge_resample_mean(pts, labels, k, [0.5], 1_000_000, seed=11)
    assert abs(mc_mean - oracle.exact_expectation_given_points) <= 5.0 * se


def test_oracle_latent_average_matches_expectation_formula():
    from gnwlab.theory import expectation_gnw

    cfg = unit_interval_scenario(n=8, h=0.2)
    mean, se = oracle_mean_over_latents(cfg, [0.5], 4000)
    exact = expectation_gnw(cfg.density, cfg.kernel, cfg.regression, [0.5], 8)
    assert abs(mean - exact) <= 5.0 * se


def test_degree_concentration_empirical():
    # P(|realized degree - d_n| >= d_n/2) <= 2 exp(-3 d_n / 14)
    from gnwlab.theory import degree_concentration_bound, local_connection

    cfg = unit_interval_scenario(n=100, h=0.05)
    d_n = cfg.n * local_connection(cfg.density, cfg.kernel, [0.5])[0]
    batch = run_replications(cfg, [0.5], 50_000)
    freq = float(np.mean(np.abs(batch.masses - d_n) >= d_n / 2.0))
    assert freq <= degree_concentration_bound(d_n)


def test_mise_depends_on_n_alpha_product():
    # thinning invariance: halving alpha while doubling n keeps d_n and,
    # approximately, the risk
    mises = []
    for n, alpha in ((100, 1.0), (200, 0.5), (400, 0.25)):
        cfg = unit_interval_scenario(n=n, alpha=alpha, h=0.1, regression=IDENTITY,
                                     noise=GaussianNoise(stddev=0.5),
                                     integrated=(150, 40), master_seed=61_000 + n)
        rep = estimate_integrated_risk(cfg)
        mises.append((rep.mse, rep.se_mse))
    for (m, s), (m2, s2) in zip(mises[:-1], mises[1:]):
        assert abs(m - m2) <= 3.0 * math.hypot(s, s2) + 0.05 * max(m, m2)


def test_mise_within_admissible_bandwidth_window():
    # choose h from the closed-form admissible window, then check MISE <= eps
    from gnwlab.theory import bandwidth_admissible_range

    n, alpha, eps = 400, 1.0, 8.0
    # uniform-density bound constants: C1 = 4 L^2 M2^2, C2 = 1304/(p0 c0 v_d M1)
    window = bandwidth_admissible_range(
        C1=4.0, C2=(1044.0 + 260.0 * 0.25) / (1.0 * 0.5 * 2.0 * 1.0),
        gamma=2.0, Delta=1.0, n_alpha=n * alpha, epsilon=eps,
    )
    assert window is not None
    h = 0.5 * (window.lo + window.hi)
    cfg = unit_interval_scenario(n=n, alpha=alpha, h=h, regression=IDENTITY,
                                 noise=GaussianNoise(stddev=0.5),
                                 integrated=(100, 30), master_seed=62_000)
    rep = estimate_integrated_risk(cfg)
    assert rep.mse + 3.0 * rep.se_mse <= eps


def test_tail_scales_inverse_degree_via_chebyshev():
    # unbounded noise: no exponential envelope, but the variance bound gives
    # P(|pred - b_n| >= delta) <= (261 B^2 + 65 s^2) / (d_n delta^2)
    from gnwlab.theory import local_connection, variance_upper_bound

    delta = 1.0
    for n in (50, 200, 800):
        cfg = unit_interval_scenario(n=n, h=0.1, noise=GaussianNoise(stddev=1.0),
                                     master_seed=63_000 + n)
        d_n = n * local_connection(cfg.density, cfg.kernel, [0.5])[0]
        batch = run_replications(cfg, [0.5], 20_000)
        tails = estimate_tail(batch, 1.0, [delta])
        bound = variance_upper_bound(1.0, 1.0, d_n) / delta**2
        assert tails[0].frequency <= bound + 3.0 * tails[0].se


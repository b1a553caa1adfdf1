import numpy as np
import pytest

from conftest import IDENTITY, unit_interval_scenario
from gnwlab.errors import InvalidInputError
from gnwlab.estimators import gnw_predict, nw_predict, predict_rows
from gnwlab.graph import QueryNeighborhood, SeedRecord
from gnwlab.model import (
    BoundedUniformNoise,
    IndicatorKernel,
    KernelSpec,
    SinusoidFunction,
)


def _neighborhood(labels, edges, x=0.5):
    labels = np.asarray(labels, dtype=float)
    n = labels.shape[0]
    return QueryNeighborhood(
        x=np.array([x]),
        points=np.linspace(0.0, 1.0, n)[:, None],
        labels=labels,
        edges=np.asarray(edges, dtype=np.uint8),
        seed_record=SeedRecord(0, 0, 0),
    )


def test_gnw_examples():
    p = gnw_predict(_neighborhood([2.0, 4.0, 6.0], [1, 0, 1]))
    assert p.value == 4.0
    assert p.mass == 2.0
    assert not p.empty

    p0 = gnw_predict(_neighborhood([2.0, 4.0, 6.0], [0, 0, 0]))
    assert p0.value == 0.0
    assert p0.empty

    pc = gnw_predict(_neighborhood([3.0] * 7, [1, 1, 0, 1, 0, 0, 1]))
    assert pc.value == 3.0


def test_nw_examples():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    p = nw_predict([0.5], np.array([[0.52]]), np.array([7.0]), kernel)
    assert p.value == 7.0 and p.mass == 1.0
    p0 = nw_predict([0.5], np.array([[0.9]]), np.array([7.0]), kernel)
    assert p0.value == 0.0 and p0.empty


def test_nw_flat_points_in_one_dimension():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    flat = nw_predict([0.5], np.array([0.52, 0.9, 0.45]), np.array([7.0, 1.0, 3.0]), kernel)
    column = nw_predict([0.5], np.array([[0.52], [0.9], [0.45]]), np.array([7.0, 1.0, 3.0]), kernel)
    assert flat == column and flat.value == 5.0


@pytest.mark.parametrize("x, points", [
    ([0.5, 0.5], np.zeros((2, 3))),  # 3-d points, 2-d query
    ([0.5, 0.5], np.zeros((4, 1))),  # 1-d points, 2-d query: no reshape to (2, 2)
    ([0.5, 0.5], np.zeros(4)),  # flat points need a 1-d query
])
def test_nw_mismatched_points_rejected(x, points):
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    with pytest.raises(InvalidInputError):
        nw_predict(x, points, np.zeros(len(points)), kernel)


def test_prediction_within_neighbor_label_range(rng):
    for _ in range(200):
        n = int(rng.integers(1, 50))
        labels = rng.normal(size=n)
        edges = rng.integers(0, 2, size=n)
        p = gnw_predict(_neighborhood(labels, edges))
        if p.empty:
            assert p.value == 0.0
            continue
        sel = labels[edges == 1]
        eps = 4.0 * np.spacing(np.max(np.abs(sel)) + 1.0)
        assert sel.min() - eps <= p.value <= sel.max() + eps


def test_shift_and_scale_equivariance(rng):
    for _ in range(100):
        n = int(rng.integers(1, 40))
        labels = rng.normal(size=n)
        edges = rng.integers(0, 2, size=n)
        if edges.sum() == 0:
            continue
        base = gnw_predict(_neighborhood(labels, edges)).value
        shifted = gnw_predict(_neighborhood(labels + 3.25, edges)).value
        scaled = gnw_predict(_neighborhood(labels * -1.5, edges)).value
        assert shifted == pytest.approx(base + 3.25, abs=1e-12)
        assert scaled == pytest.approx(base * -1.5, abs=1e-12)


def test_bounded_predictions_under_bounded_noise():
    from gnwlab.montecarlo import run_replications

    cfg = unit_interval_scenario(
        n=100, h=0.2,
        regression=SinusoidFunction(amplitude=1.0, frequency=1.0),
        noise=BoundedUniformNoise(sigma_b=0.5),
    )
    ceiling = cfg.regression.bound + cfg.noise.bound
    for p in run_replications(cfg, [0.4], 200):
        if not p.empty:
            assert abs(p.value) <= ceiling * (1.0 + 1e-12)


def test_gnw_nw_coincide_for_indicator_smoke(rng):
    from gnwlab.graph import NeighborhoodSampler

    # full 10^3-scenario sweep lives in the acceptance suite
    cfg = unit_interval_scenario(n=30, h=0.15, regression=IDENTITY)
    sampler = NeighborhoodSampler(cfg.density, cfg.kernel, cfg.regression, cfg.noise,
                                  cfg.n, cfg.master_seed)
    for rep in range(50):
        nb = sampler.neighborhood([0.5], rep)
        a = gnw_predict(nb)
        b = nw_predict(nb.x, nb.points, nb.labels, cfg.kernel)
        assert a == b


def test_predict_rows_matches_row_extraction(rng):
    labels = rng.normal(size=(64, 37))
    weights = (rng.random((64, 37)) < 0.4).astype(float)
    vals, mass = predict_rows(labels, weights)
    for r in range(64):
        v, m = predict_rows(labels[r][None, :], weights[r][None, :])
        assert v[0] == vals[r] and m[0] == mass[r]

"""Window draws: window masses, window samplers and window batches.

A window batch draws N_w ~ Bin(n, pi_w) nodes per replication, iid from p
restricted to a window around the query point.  These tests check pi_w
against closed forms and quadrature, that every window point lies in the
window and the support, and that the window batches reproduce the full
draw's law: the mean neighbour mass is n c_n and the empty rate (1 - c_n)^n.
"""

import math

import numpy as np
import pytest

from gnwlab import rng as rngmod
from gnwlab.graph import NeighborhoodSampler
from gnwlab.model import (
    ConstantFunction,
    GaussianDensity,
    KernelSpec,
    LinearFunction,
    MixtureDensity,
    NoNoise,
    TriangleKernel,
    UniformBall,
    UniformCube,
)
from gnwlab.montecarlo import run_replications
from gnwlab.quadrature import integrate_box
from gnwlab.scenario import QuerySpec, ScenarioConfig, ScenarioConstants
from gnwlab.theory import local_connection


def _phi_interval(a: float, b: float) -> float:
    """P(a <= Z <= b) for a standard normal Z, from erfc on the tail side."""
    if a > 0.0:
        return 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    return 0.5 * (math.erfc(-b / math.sqrt(2.0)) - math.erfc(-a / math.sqrt(2.0)))


def _cube_mass(cube, x, r):
    out = 1.0
    for xk, lo, hi in zip(x, cube.lo, cube.hi):
        out *= max(0.0, min(xk + r, hi) - max(xk - r, lo)) / (hi - lo)
    return out


def _lens_volume(d, r1, r2, s):
    """Volume of the intersection of two d-balls, d <= 3, by the textbook
    interval / lens-area / lens-volume formulas."""
    if s >= r1 + r2:
        return 0.0
    if s <= abs(r1 - r2):
        return [2.0, math.pi, 4.0 * math.pi / 3.0][d - 1] * min(r1, r2) ** d
    if d == 1:
        return r1 + r2 - s
    if d == 2:
        return (r1 * r1 * math.acos((s * s + r1 * r1 - r2 * r2) / (2 * s * r1))
                + r2 * r2 * math.acos((s * s + r2 * r2 - r1 * r1) / (2 * s * r2))
                - 0.5 * math.sqrt((-s + r1 + r2) * (s + r1 - r2) * (s - r1 + r2)
                                  * (s + r1 + r2)))
    return (math.pi * (r1 + r2 - s) ** 2
            * (s * s + 2 * s * r2 - 3 * r2 * r2 + 2 * s * r1 + 6 * r2 * r1 - 3 * r1 * r1)
            / (12.0 * s))


def _ball_mass(ball, x, r):
    s = math.dist(x, ball.center)
    return _lens_volume(ball.dim, r, ball.radius, s) / ball.volume


def _gauss_mass(g, x, r):
    out = 1.0
    for xk, mk in zip(x, g.mean):
        out *= _phi_interval((xk - r - mk) / g.stddev, (xk + r - mk) / g.stddev)
    return out


def _mixture_mass(mix, x, r):
    # each component is restricted to its own window around B(x, r)
    refs = {UniformCube: _cube_mass, UniformBall: _ball_mass, GaussianDensity: _quadrature_mass}
    return math.fsum(w * refs[type(c)](c, x, r) for w, c in mix.components)


def _quadrature_mass(dens, x, r):
    x = np.asarray(x, dtype=float)
    return integrate_box(dens.pdf, x - r, x + r, rel_tol=1e-13,
                         planes=dens.breakpoint_planes(),
                         spheres=dens.breakpoint_spheres()).value


CUBE = {d: UniformCube(lo=(0.0,) * d, hi=(1.0,) * d) for d in (1, 2, 3)}
BALL = {d: UniformBall(center=(0.1,) * d, radius=0.9) for d in (1, 2, 3)}
GAUSS = {d: GaussianDensity(mean=(0.2,) * d, stddev=0.5) for d in (1, 2, 3)}
MIX = {
    d: MixtureDensity(components=((0.3, CUBE[d]), (0.5, GAUSS[d]), (0.2, BALL[d])))
    for d in (1, 2, 3)
}
R_WIN = 0.15

# (name, density, x, reference mass)
MASS_CASES = []
for d in (1, 2, 3):
    MASS_CASES += [
        (f"cube{d}-inside", CUBE[d], (0.5,) * d, _cube_mass),
        (f"cube{d}-edge", CUBE[d], (0.05,) + (0.5,) * (d - 1), _cube_mass),
        (f"cube{d}-outside", CUBE[d], (1.2,) + (0.5,) * (d - 1), _cube_mass),
        (f"ball{d}-inside", BALL[d], (0.2,) * d, _ball_mass),
        (f"ball{d}-edge", BALL[d], (0.95,) + (0.1,) * (d - 1), _ball_mass),
        (f"ball{d}-outside", BALL[d], (1.2,) + (0.1,) * (d - 1), _ball_mass),
        (f"gauss{d}-inside", GAUSS[d], (0.3,) * d, _gauss_mass),
        (f"gauss{d}-tail", GAUSS[d], (2.9,) + (0.2,) * (d - 1), _gauss_mass),
        (f"gauss{d}-lower-tail", GAUSS[d], (-3.5,) + (0.2,) * (d - 1), _quadrature_mass),
        (f"mix{d}-edge", MIX[d], (0.95,) + (0.5,) * (d - 1), _mixture_mass),
    ]


@pytest.mark.parametrize("name,dens,x,reference", MASS_CASES, ids=[c[0] for c in MASS_CASES])
def test_window_mass_matches_reference(name, dens, x, reference):
    got = dens.window_mass(np.asarray(x, dtype=float), R_WIN)
    want = reference(dens, x, R_WIN)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    if name.endswith("outside"):
        assert got == 0.0
    else:
        assert got > 0.0


def _in_window(dens, x, r, pts):
    """Window membership: the box of B(x, r), and the ball itself for a ball."""
    in_box = np.all(np.abs(pts - x) <= r, axis=-1)
    if isinstance(dens, UniformBall):
        return in_box & (np.sum((pts - x) ** 2, axis=-1) <= r * r)
    return in_box


POINT_CASES = [c[:3] for c in MASS_CASES if not c[0].endswith("outside")]


@pytest.mark.parametrize("name,dens,x", POINT_CASES, ids=[c[0] for c in POINT_CASES])
def test_window_points_lie_in_window_and_support(name, dens, x):
    x = np.asarray(x, dtype=float)
    pts = dens.window_sample(rngmod.stream(3, rngmod.WINDOW, 0, 0), x, R_WIN, 4000)
    assert pts.shape == (4000, dens.dim)
    assert np.all(_in_window(dens, x, R_WIN, pts))
    assert np.all(dens.support_contains(pts))
    for k in range(dens.dim):  # the points fill the window, not one corner of it
        assert np.ptp(pts[:, k]) > 0.5 * min(R_WIN, 0.05)


def _scenario(dens, kernel, n, master_seed=20261018):
    d = dens.dim
    return ScenarioConfig(
        dimension=d, n=n, density=dens, kernel=kernel,
        regression=ConstantFunction(1.0), noise=NoNoise(),
        constants=ScenarioConstants(), query=QuerySpec(points=((0.0,) * d,)),
        replications=1000, master_seed=master_seed,
    )


LAW_CASES = [
    ("cube1-edge", CUBE[1], (0.03,), 60),
    ("cube2-inside", CUBE[2], (0.4, 0.6), 200),
    ("cube3-edge", CUBE[3], (0.05, 0.5, 0.5), 1500),
    ("ball1-inside", BALL[1], (0.3,), 60),
    ("ball2-edge", BALL[2], (0.97, 0.1), 300),
    ("ball3-inside", BALL[3], (0.2, 0.2, 0.2), 1500),
    ("gauss1-tail", GAUSS[1], (1.6,), 400),
    ("gauss2-inside", GAUSS[2], (0.3, 0.1), 300),
    ("mix2-edge", MIX[2], (0.95, 0.5), 300),
    ("mix3-inside", MIX[3], (0.3, 0.3, 0.3), 1500),
]


@pytest.mark.parametrize("name,dens,x,n", LAW_CASES, ids=[c[0] for c in LAW_CASES])
def test_window_draws_reproduce_degree_and_empty_rate(name, dens, x, n):
    kernel = KernelSpec(TriangleKernel(), alpha=0.8, h=R_WIN)
    cfg = _scenario(dens, kernel, n)
    c_n, err = local_connection(dens, kernel, x, rel_tol=1e-7)
    R = 4000
    batch = run_replications(cfg, x, R, threads=2)
    d_n = n * c_n
    assert 0.5 < d_n < 10.0  # both the mass and the empty rate are informative
    se_mass = float(np.std(batch.masses, ddof=1)) / math.sqrt(R)
    assert abs(float(np.mean(batch.masses)) - d_n) <= 5.0 * se_mass + n * err
    q = (1.0 - c_n) ** n
    empty = float(np.mean(batch.masses == 0.0))
    assert abs(empty - q) <= 5.0 * math.sqrt(q * (1.0 - q) / R)


@pytest.mark.parametrize("dens,x", [(CUBE[2], (1.3, 0.5)), (BALL[3], (1.2, 0.1, 0.1))],
                         ids=["cube2", "ball3"])
def test_outside_the_support_every_prediction_is_empty(dens, x):
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=R_WIN)
    cfg = _scenario(dens, kernel, 10**6)
    batch = run_replications(cfg, x, 500)
    assert np.all(batch.masses == 0.0) and np.all(batch.values == 0.0)


def test_declared_m2_does_not_shrink_the_window():
    # The triangle profile reaches r = 1 whatever m2 is declared.
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=0.1, m1=0.25, m2=0.5)
    assert kernel.support_radius == 0.1
    dens = CUBE[1]
    regression = LinearFunction(slope=(1.0,), intercept=0.0, bound=1.0)
    sampler = NeighborhoodSampler(dens, kernel, regression, NoNoise(), 200, 5)
    x = np.array([0.5])
    window = sampler.window(x)
    assert window.mass == pytest.approx(0.2, rel=1e-12)
    batch = sampler.window_batch(window, 0, 0)
    used = np.arange(batch.edges.shape[1]) < batch.counts[:, None]
    assert not batch.edges[~used].any() and not batch.labels[~used].any()
    edges = batch.edges[used].astype(bool)
    dist = np.abs(batch.points[:, 0] - 0.5)
    assert np.any(edges & (dist > 0.05))

    # c_n = h * 2 * int_0^1 K(r) dr = 2h (1/2 + 1/4) on the unit interval
    c_n, _ = local_connection(dens, kernel, x)
    assert c_n == pytest.approx(1.5 * 0.1, rel=1e-7)
    cfg = _scenario(dens, kernel, 200)
    batch = run_replications(cfg, x, 4000)
    se = float(np.std(batch.masses, ddof=1)) / math.sqrt(4000)
    assert abs(float(np.mean(batch.masses)) - 200 * c_n) <= 5.0 * se

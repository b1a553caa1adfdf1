import heapq
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnwlab import quadrature, theory
from gnwlab.errors import QuadratureError
from gnwlab.model import KernelSpec, TriangleKernel, UniformBall
from gnwlab.quadrature import QuadResult, adaptive_interval, integrate_box
from gnwlab.theory import local_connection


def test_polynomial_exact():
    res = adaptive_interval(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-13)
    assert res.error <= 1e-10


def test_smooth_vs_scipy():
    f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
    mine = adaptive_interval(f, -2.0, 3.0, rel_tol=1e-11)
    ref, _ = quad(lambda x: math.exp(-x * x) * math.cos(3.0 * x), -2.0, 3.0, epsabs=1e-13)
    assert mine.value == pytest.approx(ref, abs=1e-10)


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 0.3)
    res = adaptive_interval(f, 0.0, 1.0, breakpoints=[0.3])
    exact = 0.3**2 / 2 + 0.7**2 / 2
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_sqrt_cusp():
    res = adaptive_interval(lambda x: np.sqrt(np.abs(x)), -0.5, 1.0,
                            breakpoints=[0.0], rel_tol=1e-10)
    exact = 2.0 / 3.0 * (0.5**1.5 + 1.0)
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert res.error <= 1e-7


def test_discontinuous_indicator():
    res = adaptive_interval(lambda x: (x <= 0.4).astype(float), 0.0, 1.0, breakpoints=[0.4])
    assert res.value == pytest.approx(0.4, rel=1e-13)


def test_budget_exhaustion_raises():
    f = lambda x: np.sin(1e6 * x)  # unresolvable at this panel budget
    with pytest.raises(QuadratureError):
        adaptive_interval(f, 0.0, 1.0, rel_tol=1e-14, max_panels=8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_raises_at_once(bad):
    # A NaN error fails every comparison, so a lane would refine to its
    # panel budget and return NaN unless it is stopped on sight.
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x > 0.5, bad, 1.0)

    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_interval(f, 0.0, 1.0)
    assert len(calls) == 1
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_box(lambda p: np.where(p[:, 1] > 0.5, bad, 1.0), [0.0, 0.0], [1.0, 1.0])


def test_box_2d_product():
    res = integrate_box(lambda p: p[:, 0] * p[:, 1], [0.0, 0.0], [1.0, 1.0])
    assert res.value == pytest.approx(0.25, rel=1e-10)


def test_box_2d_disk_area():
    # indicator of a radius-0.3 disk; sphere cuts make the inner panels exact
    center = np.array([0.5, 0.5])

    def f(pts):
        return (np.sum((pts - center) ** 2, axis=1) <= 0.09).astype(float)

    res = integrate_box(f, [0.0, 0.0], [1.0, 1.0], spheres=[(center, 0.3)])
    assert res.value == pytest.approx(math.pi * 0.09, rel=1e-7)


def test_box_3d_gaussian_mass():
    dens = 1.0 / (2.0 * math.pi) ** 1.5

    def f(pts):
        return dens * np.exp(-0.5 * np.sum(pts * pts, axis=1))

    res = integrate_box(f, [-6.0] * 3, [6.0] * 3, rel_tol=1e-7)
    assert res.value == pytest.approx(1.0, rel=1e-6)


def test_halton_high_dim():
    res = integrate_box(lambda p: np.prod(p, axis=1), [0.0] * 4, [1.0] * 4)
    assert res.value == pytest.approx(1.0 / 16.0, abs=5e-4)
    assert res.error < 5e-3


def test_empty_domain():
    res = integrate_box(lambda p: np.ones(len(p)), [1.0], [0.5])
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# lockstep lanes against the sequential rule, one integral at a time
# ---------------------------------------------------------------------------


# Gauss-Legendre nodes and weights, computed once: the per-node reference
# runs thousands of 1-d rules.
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)


def _heap_interval(f, lo, hi, *, rel_tol=1e-9, abs_tol=0.0, breakpoints=(), max_panels=4096):
    """The adaptive rule for one integral, with a heap of panels (worst first, oldest on ties)."""
    if hi <= lo:
        return QuadResult(0.0, 0.0, 0)

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        v7 = half * float(np.dot(_W7, f(mid + half * _X7)))
        v15 = half * float(np.dot(_W15, f(mid + half * _X15)))
        return v15, abs(v15 - v7)

    cuts = sorted({float(lo), float(hi), *(float(p) for p in breakpoints if lo < p < hi)})
    heap, sums, evals = [], [0.0, 0.0, 0.0], 0  # sums: value, L1 mass, error

    def push(a, b, v, e):
        heapq.heappush(heap, (-e, next(order), a, b, v))
        sums[0] += v
        sums[1] += abs(v)
        sums[2] += e

    order = itertools.count()
    for a, b in zip(cuts[:-1], cuts[1:]):
        push(a, b, *panel(a, b))
        evals += 22
    target = lambda: max(abs_tol, rel_tol * abs(sums[0]), 1e-15 * sums[1])
    while len(heap) < max_panels and sums[2] > target():
        neg_e, _, a, b, v = heapq.heappop(heap)
        sums[0] -= v
        sums[1] -= abs(v)
        sums[2] += neg_e
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            push(a, b, v, 0.0)
            continue
        for p, q in ((a, mid), (mid, b)):
            push(p, q, *panel(p, q))
            evals += 22
    if sums[2] > target():
        raise QuadratureError(f"[{lo}, {hi}]: error {sums[2]:.3e} after {len(heap)} panels")
    return QuadResult(math.fsum(i[4] for i in heap), math.fsum(-i[0] for i in heap), evals)


@pytest.mark.parametrize("f, lo, hi, kwargs", [
    (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, dict(rel_tol=1e-8)),  # worst-panel ties
    (lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, dict(rel_tol=1e-8, breakpoints=[0.0, 0.0])),
    (lambda x: np.clip(2.0 - 5.0 * np.abs(x), 0.0, 1.0), -1.0, 1.0,
     dict(rel_tol=1e-12, breakpoints=[-0.4, -0.2, 0.2, 0.4, 7.0])),
    (lambda x: np.exp(-x * x) * np.cos(3.0 * x), -2.0, 3.0, dict(rel_tol=1e-11)),
    (lambda x: np.sin(1e3 * x), 0.0, 1.0, dict(rel_tol=1e-12)),
    (lambda x: x - 1.0, 1.0, float(np.nextafter(1.0, 2.0)), dict(rel_tol=1e-14)),  # 1 ulp wide
    (lambda x: np.sin(1e6 * x), 0.0, 1.0, dict(rel_tol=1e-14, max_panels=8)),
])
def test_adaptive_interval_matches_heap_rule(f, lo, hi, kwargs):
    try:
        expected = _heap_interval(f, lo, hi, **kwargs)
    except QuadratureError:
        with pytest.raises(QuadratureError):
            adaptive_interval(f, lo, hi, **kwargs)
    else:
        assert adaptive_interval(f, lo, hi, **kwargs) == expected


def test_panel_reduction_matches_per_row_dot():
    # _panels reduces all rows with np.vecdot; each row must keep the bits of
    # its own np.dot, which the per-node reference rule uses.
    rng = np.random.default_rng(5)
    count = 3000
    vals = rng.standard_normal((count, 22)) * 10.0 ** rng.uniform(-8, 8, (count, 1))
    lo = rng.uniform(-2.0, 1.0, count)
    hi = lo + 10.0 ** rng.uniform(-9, 0.5, count)
    v15, err = quadrature._panels(lambda lane, ts: vals.ravel(), np.arange(count), lo, hi)
    for k in range(count):
        half = 0.5 * (hi[k] - lo[k])
        v7 = half * _W7.dot(vals[k, :7])
        want = half * _W15.dot(vals[k, 7:])
        assert (v15[k], err[k]) == (want, abs(want - v7)), k


def test_sphere_cuts_match_scalar_formula():
    # The crossings define the panels, so they must equal the scalar
    # r^2 - fsum((v - c_k) ** 2) formula bit for bit, not just closely.
    rng = np.random.default_rng(3)
    center, radius = np.array([0.1, -0.2, 0.3]), 0.7
    fixed = rng.uniform(-0.6, 0.6, (4000, 2))
    cuts = quadrature._axis_cuts([], [(center, radius)], 2, fixed)
    for row, got in zip(fixed.tolist(), cuts):
        slack = radius * radius - math.fsum((v - center[k]) ** 2 for k, v in enumerate(row))
        root = math.sqrt(slack) if slack >= 0.0 else math.nan
        np.testing.assert_array_equal(got, [center[2] - root, center[2] + root])


def _per_node_reference(f, lo, hi, rel_tol, planes, spheres, max_panels=4096):
    """The iterated rule from nested sequential 1-d rules, one outer node at a time."""
    d = len(lo)
    inner_tol = rel_tol * 0.1 if d == 3 else rel_tol
    state = {"evals": 0, "inner_err": 0.0}

    def level(axis, fixed):
        cuts = list(planes[axis])
        for c, r in spheres:
            slack = r * r - math.fsum((v - c[k]) ** 2 for k, v in enumerate(fixed))
            if slack >= 0.0:
                cuts += [c[axis] - math.sqrt(slack), c[axis] + math.sqrt(slack)]
        if axis == d - 1:
            def g(ts):
                pts = np.empty((len(ts), d))
                pts[:, :axis] = fixed
                pts[:, axis] = ts
                return f(pts)

            res = _heap_interval(g, lo[axis], hi[axis], rel_tol=inner_tol, abs_tol=1e-300,
                                 breakpoints=cuts, max_panels=max_panels)
            state["inner_err"] = max(state["inner_err"], res.error)
        else:
            res = _heap_interval(
                lambda ts: np.array([level(axis + 1, fixed + (float(t),)) for t in ts]),
                lo[axis], hi[axis], rel_tol=rel_tol if axis == 0 else inner_tol,
                breakpoints=cuts, max_panels=512 if axis == 0 else 256)
            state["outer_err"] = res.error
        state["evals"] += res.evaluations
        return res.value

    value = level(0, ())
    error = state["outer_err"] + state["inner_err"] * float(np.prod(np.subtract(hi, lo)[:-1]))
    return QuadResult(value, error, state["evals"])


def _disk_case():
    center = np.array([0.5, 0.5])
    f = lambda p: (np.sum((p - center) ** 2, axis=1) <= 0.09).astype(float)
    return f, [0.0, 0.0], [1.0, 1.0], 1e-8, [[], []], [(center, 0.3)]


def _gaussian_plane_case():
    f = lambda p: np.exp(-0.5 * np.sum(p * p, axis=1)) * (1.0 + (p[:, 0] > 0.1))
    return f, [-3.0, -2.0], [2.0, 3.0], 1e-9, [[0.1], []], []


def _triangle_ball_case():
    ball = UniformBall(center=(0.0, 0.0, 0.0), radius=1.0)
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=0.4)
    x = np.array([0.1, -0.2, 0.3])
    f = lambda p: kernel.edge_probabilities(x, p) * ball.pdf(p)
    spheres = [(x, r) for r in kernel.kink_radii] + ball.breakpoint_spheres()
    return f, list(x - 0.4), list(x + 0.4), 1e-4, ball.breakpoint_planes(), spheres


@pytest.fixture(scope="module", params=[_disk_case, _gaussian_plane_case, _triangle_ball_case])
def iterated_case(request):
    case = request.param()
    return case, _per_node_reference(*case)


@pytest.mark.parametrize("group", [None, 1, 7])
def test_lockstep_matches_per_node_rule(iterated_case, group, monkeypatch):
    (f, lo, hi, rel_tol, planes, spheres), expected = iterated_case
    if group is not None:
        monkeypatch.setattr(quadrature, "_LANE_GROUP", group)
    res = integrate_box(f, lo, hi, rel_tol=rel_tol, planes=planes, spheres=spheres)
    assert res == expected


def test_lane_out_of_panels_raises():
    # inner lanes with x > 0.5 see an unresolvable oscillation in y
    f = lambda p: np.where(p[:, 0] > 0.5, np.sin(1e5 * p[:, 1]), 1.0)
    args = (f, [0.0, 0.0], [1.0, 1.0], 1e-8, [[], []], [])
    with pytest.raises(QuadratureError):
        _per_node_reference(*args, max_panels=16)
    with pytest.raises(QuadratureError):
        integrate_box(f, [0.0, 0.0], [1.0, 1.0], max_panels=16)


def test_3d_window_integrand_calls_bounded(monkeypatch):
    # One integrand call per refinement sweep, not per outer node: a per-node
    # rule makes tens of thousands of calls here.
    calls = []
    original = KernelSpec.edge_probabilities

    def counting(self, x, points):
        calls.append(len(points))
        return original(self, x, points)

    monkeypatch.setattr(KernelSpec, "edge_probabilities", counting)
    ball = UniformBall(center=(0.0, 0.0, 0.0), radius=1.0)
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=0.4)
    c_n, err = local_connection(ball, kernel, (0.0, 0.0, 0.0), rel_tol=1e-3)
    assert abs(c_n - 15.0 * 0.4**3 / 32.0) <= err
    assert len(calls) < 1000


@pytest.mark.parametrize("rel_tol, expected", [
    (1e-8, QuadResult(0.02999999999979543, 6.640951458886103e-11, 4100558)),
    (1e-3, QuadResult(0.029999988164078478, 2.1536942377436805e-06, 265782)),
])
def test_3d_window_integral_pinned(rel_tol, expected):
    # The benchmark's 3-D c_n call (exact value 15 h^3 / 32 = 0.03), pinned
    # bit for bit: a change to the rule, the reductions or the point layout
    # that moves any value, error or count fails here.
    ball = UniformBall(center=(0.0, 0.0, 0.0), radius=1.0)
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=0.4)
    assert theory._window_integral(ball, kernel, np.zeros(3), rel_tol=rel_tol) == expected

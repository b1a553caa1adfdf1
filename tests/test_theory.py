import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnwlab.errors import InvalidInputError
from gnwlab.model import (
    ConstantFunction,
    GaussianDensity,
    HalfPlateauKernel,
    IndicatorKernel,
    KernelSpec,
    LinearFunction,
    SinusoidFunction,
    TriangleKernel,
    UniformBall,
    UniformCube,
)
from gnwlab.theory import (
    bandwidth_admissible_range,
    bias_uniform_bound,
    concentration_envelope,
    concentration_rate,
    degree_concentration_bound,
    degree_lower_bound,
    degree_ratio_check,
    expectation_gnw,
    holder_density_risk_bound,
    lebesgue_ratio_bracket,
    local_connection,
    measure_retaining_estimate,
    operator_value,
    pointwise_risk_bound,
    proxy_gap,
    smoothed_value,
    sqrt_density_integral,
    uniform_density_risk_bound,
    variance_lower_bound,
    variance_upper_bound,
    window_moments,
)

UNIT = UniformCube(lo=(0.0,), hi=(1.0,))
INDICATOR = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
IDENTITY = LinearFunction(slope=(1.0,), intercept=0.0, bound=1.0)


# ---------------------------------------------------------------------------
# local connection / degree / smoothed value
# ---------------------------------------------------------------------------


def test_local_connection_closed_forms():
    c, err = local_connection(UNIT, INDICATOR, [0.5])
    assert c == pytest.approx(0.2, rel=1e-12) and err == 0.0
    c2, _ = local_connection(UNIT, KernelSpec(IndicatorKernel(), alpha=0.5, h=0.1), [0.5])
    assert c2 == pytest.approx(0.1, rel=1e-12)
    far, _ = local_connection(UNIT, INDICATOR, [5.0])
    assert far == 0.0


def test_local_connection_quadrature_vs_scipy():
    for base, profile in [
        (TriangleKernel(), lambda r: min(1.0, max(0.0, 2.0 - 2.0 * r))),
        (HalfPlateauKernel(), lambda r: 1.0 if r <= 0.5 else (0.5 if r <= 1.0 else 0.0)),
    ]:
        k = KernelSpec(base, alpha=0.8, h=0.15)
        for x in (0.5, 0.05, 0.98):
            mine, err = local_connection(UNIT, k, [x])
            ref, _ = quad(lambda z: 0.8 * profile(abs(x - z) / 0.15), 0.0, 1.0,
                          points=[x - 0.15, x - 0.075, x + 0.075, x + 0.15], limit=200)
            assert mine == pytest.approx(ref, abs=max(1e-10, 5 * err))


def test_local_connection_ball_closed_form_vs_quadrature():
    dens = UniformBall(center=(0.0, 0.0), radius=1.0)
    k = KernelSpec(IndicatorKernel(), alpha=0.9, h=0.4)
    x = [0.8, 0.1]
    closed, err0 = local_connection(dens, k, x)
    assert err0 == 0.0
    tri = KernelSpec(TriangleKernel(), alpha=0.9, h=0.4)  # forces quadrature path
    quad_val, err = local_connection(dens, tri, x)
    assert quad_val < closed  # triangle sits under the indicator
    # indicator through the generic quadrature path: widen m2 so no closed form
    ref = _indicator_ball_quadrature(dens, 0.9, 0.4, np.asarray(x))
    assert closed == pytest.approx(ref, rel=1e-6)


def _indicator_ball_quadrature(dens, alpha, h, x):
    from gnwlab.quadrature import integrate_box

    def f(pts):
        inside = np.sum((pts - x) ** 2, axis=1) <= h * h
        return alpha * inside * dens.pdf(pts)

    return integrate_box(
        f, x - h, x + h, spheres=[(x, h), (np.zeros(2), 1.0)], rel_tol=1e-9,
    ).value


def test_gaussian_connection_vs_scipy():
    dens = GaussianDensity(mean=(0.0,), stddev=1.0)
    k = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.3)
    mine, err = local_connection(dens, k, [0.7])
    ref, _ = quad(lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi), 0.4, 1.0)
    assert mine == pytest.approx(ref, rel=1e-9)


def test_smoothed_value_examples():
    b, _ = smoothed_value(UNIT, INDICATOR, ConstantFunction(1.0), [0.5])
    assert b == pytest.approx(1.0, rel=1e-10)
    b2, _ = smoothed_value(UNIT, INDICATOR, IDENTITY, [0.5])
    assert b2 == pytest.approx(0.5, rel=1e-10)
    b3, _ = smoothed_value(UNIT, INDICATOR, IDENTITY, [0.0])
    assert b3 == pytest.approx(0.05, rel=1e-9)
    far, _ = smoothed_value(UNIT, INDICATOR, IDENTITY, [5.0])
    assert far == 0.0


def test_smoothed_value_bounded_by_sup():
    f = SinusoidFunction(amplitude=1.0, frequency=3.0)
    for x in np.linspace(0.0, 1.0, 21):
        b, _ = smoothed_value(UNIT, KernelSpec(TriangleKernel(), alpha=0.6, h=0.2), f, [x])
        assert abs(b) <= f.bound + 1e-9


def test_operator_identity_b_times_c():
    # T(f, x) == b_n * c_n via an independent scipy route
    f = SinusoidFunction(amplitude=0.9, frequency=1.5)
    k = KernelSpec(TriangleKernel(), alpha=0.7, h=0.25)
    for x in (0.3, 0.9):
        t, t_err = operator_value(UNIT, k, f, [x])
        c, _ = local_connection(UNIT, k, [x])
        b, _ = smoothed_value(UNIT, k, f, [x])
        assert b * c == pytest.approx(t, abs=max(5 * t_err, 1e-12))
        ref, _ = quad(
            lambda z: 0.9 * math.sin(2 * math.pi * 1.5 * z)
            * 0.7 * min(1.0, max(0.0, 2.0 - 2.0 * abs(x - z) / 0.25)),
            max(0.0, x - 0.25), min(1.0, x + 0.25), limit=200,
        )
        assert t == pytest.approx(ref, abs=1e-9)


def test_expectation_examples():
    e = expectation_gnw(UNIT, INDICATOR, ConstantFunction(1.0), [0.5], 10)
    assert e == pytest.approx(0.8926258176, abs=1e-10)
    e2 = expectation_gnw(UNIT, INDICATOR, IDENTITY, [0.5], 10)
    assert e2 == pytest.approx(0.4463129088, abs=1e-10)
    far = expectation_gnw(UNIT, INDICATOR, IDENTITY, [5.0], 10)
    assert far == 0.0


def test_expectation_constant_identity():
    for n in (1, 7, 40):
        c, _ = local_connection(UNIT, INDICATOR, [0.3])
        e = expectation_gnw(UNIT, INDICATOR, ConstantFunction(2.5), [0.3], n)
        assert e == pytest.approx(2.5 * (1.0 - (1.0 - c) ** n), rel=1e-10)


def test_window_moments_relations():
    m = window_moments(UNIT, INDICATOR, IDENTITY, [0.5])
    assert m.b_n * m.c_n == pytest.approx(m.t_f, abs=1e-10)
    assert m.b_n == pytest.approx(0.5, abs=1e-12)  # f(x): no bias at the centre
    assert expectation_gnw(UNIT, INDICATOR, IDENTITY, [0.5], 10) \
        == pytest.approx(m.b_n * (1.0 - (1.0 - m.c_n) ** 10), rel=1e-12)
    assert m.c_err == 0.0 and m.b_err < 1e-6
    far = window_moments(UNIT, INDICATOR, IDENTITY, [5.0])
    assert (far.c_n, far.t_f, far.b_n, far.b_err) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------


def test_variance_upper_bound_values():
    assert variance_upper_bound(1.0, 1.0, 1.0) == 326.0
    assert variance_upper_bound(1.0, 0.0, 261.0) == 1.0
    assert variance_upper_bound(0.0, 0.0, 5.0) == 0.0
    with pytest.raises(InvalidInputError):
        variance_upper_bound(1.0, 1.0, 0.0)


def test_variance_lower_bound_values():
    assert variance_lower_bound(1.0, 5.0) == pytest.approx(0.1973139011863183, abs=1e-12)
    assert variance_lower_bound(0.0, 5.0) == 0.0
    assert variance_lower_bound(1.0, 100.0) == pytest.approx(0.01, abs=1e-6)
    with pytest.raises(InvalidInputError):
        variance_lower_bound(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        variance_lower_bound(-1.0, 5.0)


def test_variance_bounds_ordered(rng):
    for _ in range(1000):
        B = float(rng.random() * 3)
        s2 = float(rng.random() * 4)
        d = float(rng.random() * 50 + 1e-3)
        assert variance_lower_bound(s2, d) <= variance_upper_bound(B, s2, d) + 1e-15


def test_concentration_rate_branches():
    c = concentration_rate(0.5, 1.0, 0.5)
    assert c == pytest.approx(0.007792207792207792, abs=1e-12)
    assert concentration_rate(0.5, 1.0, 0.5) == min(
        3 / 14, 3 * 0.25 / (32 * 0.5 + 96 * 0.25), 6 * 0.25 / (192 + 0.5)
    )
    # noiseless: the sigma branch is dropped
    assert concentration_rate(10.0, 0.01, 0.0) == pytest.approx(3 / 14, abs=1e-12)


def test_concentration_envelope_values():
    bound, _ = concentration_envelope(0.5, 1.0, 0.5, 0.0)
    assert bound == 1.0
    bound3, c3 = concentration_envelope(100.0, 0.01, 0.001, 14.0)
    assert c3 == pytest.approx(3 / 14, abs=1e-12)
    assert bound3 == pytest.approx(6 * math.exp(-3.0), abs=1e-10)


def test_concentration_envelope_monotonicity(rng):
    for _ in range(1000):
        B = float(rng.random() * 2 + 0.1)
        sig = float(rng.random())
        delta = float(rng.random() * 2 + 0.01)
        d1 = float(rng.random() * 30)
        d2 = d1 + float(rng.random() * 10)
        b1, _ = concentration_envelope(delta, B, sig, d1)
        b2, _ = concentration_envelope(delta, B, sig, d2)
        assert b2 <= b1 + 1e-15  # nonincreasing in the degree
        smaller, _ = concentration_envelope(delta * 0.5, B, sig, d1)
        assert smaller >= b1 - 1e-15  # nondecreasing as delta shrinks


def test_degree_concentration_values():
    assert degree_concentration_bound(0.0) == 1.0
    assert degree_concentration_bound(14.0 / 3.0) == pytest.approx(2 * math.exp(-1), abs=1e-12)
    assert degree_concentration_bound(140.0) == pytest.approx(2 * math.exp(-30), rel=1e-10)


def test_bias_uniform_bound_values():
    assert bias_uniform_bound(1.0, 1.0, 1.0, 0.05) == pytest.approx(0.1, rel=1e-12)
    assert bias_uniform_bound(0.0, 0.5, 1.0, 0.05) == 0.0
    assert bias_uniform_bound(1.0, 0.5, 1.0, 0.04) == pytest.approx(0.4, rel=1e-12)


def test_degree_lower_bound_values():
    assert degree_lower_bound(1.0, 1, 1.0, 1000, 1.0, 0.05, 1.0) == pytest.approx(50.0)
    assert degree_lower_bound(1.0, 1, 1.0, 1000, 0.5, 0.05, 1.0) == pytest.approx(25.0)
    with pytest.raises(InvalidInputError):
        degree_lower_bound(0.0, 1, 1.0, 1000, 1.0, 0.05, 1.0)


def test_degree_lower_bound_dominated_by_actual():
    # interior point of the unit interval: actual degree beats the guarantee
    for h in (0.02, 0.1, 0.3):
        k = KernelSpec(IndicatorKernel(), alpha=0.8, h=h)
        actual = 500 * local_connection(UNIT, k, [0.5])[0]
        guaranteed = degree_lower_bound(0.5, 1, 1.0, 500, 0.8, h, 1.0)
        assert actual >= guaranteed - 1e-9


def test_proxy_gap_values():
    assert proxy_gap(1.0, 0.2, 10) == pytest.approx(0.8**20, rel=1e-12)
    assert proxy_gap(1.0, 1.0, 3) == 0.0
    assert proxy_gap(0.0, 0.2, 10) == 0.0
    with pytest.raises(InvalidInputError):
        proxy_gap(1.0, 1.5, 10)


def test_pointwise_risk_bound_values():
    v = pointwise_risk_bound(L=1, a=1, M2=1, B=1, sigma_sq=1, c0=1, d=1, M1=1,
                             n=1000, alpha=1, h=0.1, p0=1)
    assert v == pytest.approx(6.56, rel=1e-12)
    v2 = pointwise_risk_bound(L=1, a=1, M2=1, B=1, sigma_sq=1, c0=1, d=1, M1=1,
                              n=1000, alpha=1, h=0.01, p0=1)
    assert v2 == pytest.approx(65.2004, rel=1e-12)
    v3 = pointwise_risk_bound(L=0, a=1, M2=1, B=0, sigma_sq=0, c0=1, d=1, M1=1,
                              n=1000, alpha=1, h=0.1, p0=1)
    assert v3 == 0.0


def test_pointwise_risk_bound_composes():
    # direct formula == squared bias bound + twice the variance bound at the
    # guaranteed degree
    params = dict(L=0.7, a=0.6, M2=1.2, B=1.4, sigma_sq=0.8, c0=0.5, d=2,
                  M1=0.75, n=400, alpha=0.6, h=0.07, p0=0.9)
    direct = pointwise_risk_bound(**params)
    bias = bias_uniform_bound(params["L"], params["a"], params["M2"], params["h"])
    dmin = degree_lower_bound(params["c0"], params["d"], params["M1"], params["n"],
                              params["alpha"], params["h"], params["p0"])
    composed = bias**2 + 2.0 * variance_upper_bound(params["B"], params["sigma_sq"], dmin)
    assert direct == pytest.approx(composed, rel=1e-12)


def test_integrated_risk_uniform_variant():
    rep = uniform_density_risk_bound(
        L=1, a=1, M2=1, B=1, sigma_sq=1, c0=1, d=1, M1=1,
        n=1000, alpha=1, h=0.1, p0=1, r0=1.0,
    )
    assert rep.integrated_bound == pytest.approx(6.56, rel=1e-12)
    assert rep.pointwise_bound == rep.integrated_bound
    assert rep.bandwidth is None  # no epsilon requested
    with pytest.raises(InvalidInputError, match="r0"):
        uniform_density_risk_bound(
            L=1, a=1, M2=1, B=1, sigma_sq=1, c0=1, d=1, M1=1,
            n=1000, alpha=1, h=0.5, p0=1, r0=0.2,
        )


def test_integrated_risk_attaches_bandwidth_window():
    rep = uniform_density_risk_bound(
        L=1, a=1, M2=1, B=1, sigma_sq=1, c0=1, d=1, M1=1,
        n=1000, alpha=1, h=0.1, p0=1, r0=1.0, epsilon=20.0, rate_exponent=0.5,
    )
    assert rep.bandwidth is not None
    lo, hi = rep.bandwidth.lo, rep.bandwidth.hi
    assert 0.0 < lo <= hi
    c1, c2 = 4.0, 1304.0 / 2.0
    for h in (lo, hi):
        assert c1 * h**2 + c2 / (1000 * h) <= 20.0 * (1.0 + 1e-9)
    assert rep.bandwidth.rate_bound == pytest.approx(2.0 * c1**(1/3) * c2**(2/3) / 1000**0.5)


def test_sqrt_density_integral_gaussian():
    val, err = sqrt_density_integral(GaussianDensity(mean=(0.0,), stddev=1.0))
    assert val == pytest.approx(2.0**0.75 * math.pi**0.25, rel=1e-8)
    assert err < 1e-6


def test_integrated_risk_holder_variant():
    dens = GaussianDensity(mean=(0.0,), stddev=1.0)
    rep = holder_density_risk_bound(
        L=1.0, a=1.0, M2=1.0, B=1.0, sigma_sq=0.0, c0=1.0, d=1,
        M1=1.0, n=1000, alpha=1.0, h=0.1, beta=1.0, L_density=0.25, density=dens, r0=None,
    )
    i_sqrtp = 2.0**0.75 * math.pi**0.25
    c1 = max(4.0, 4.0 * math.sqrt(0.25) * i_sqrtp)
    c2 = 1044.0 / (1.0 * 2.0 * 0.25 * 1.0)
    expected = c1 * 0.1 ** min(2.0, 0.5) + c2 / (1000 * 0.1**2)
    assert rep.integrated_bound == pytest.approx(expected, rel=1e-8)
    with pytest.raises(InvalidInputError, match="h < min"):
        holder_density_risk_bound(
            L=1.0, a=1.0, M2=1.0, B=1.0, sigma_sq=0.0, c0=1.0,
            d=1, M1=1.0, n=1000, alpha=1.0, h=1.5, beta=1.0, L_density=0.25,
            density=dens, r0=10.0,
        )


def test_bandwidth_range_examples():
    rng_range = bandwidth_admissible_range(1.0, 1.0, 1.0, 1.0, 100.0, 0.4)
    assert (rng_range.lo, rng_range.hi) == (pytest.approx(0.05), pytest.approx(0.2))
    F = lambda h: 1.0 * h + 1.0 / (100.0 * h)
    assert F(0.1) == pytest.approx(0.2) and F(0.1) <= 0.4
    assert bandwidth_admissible_range(1.0, 1.0, 1.0, 1.0, 100.0, 0.1) is None
    point = bandwidth_admissible_range(1.0, 1.0, 1.0, 1.0, 100.0, 0.2)
    assert point.lo == pytest.approx(point.hi)
    with_rate = bandwidth_admissible_range(1.0, 1.0, 1.0, 1.0, 100.0, 0.4, r=0.5)
    assert with_rate.rate_bound == pytest.approx(2.0 / 10.0)


def test_bandwidth_range_substitution_property(rng):
    hits = 0
    while hits < 1000:
        c1 = float(rng.random() * 5 + 0.1)
        c2 = float(rng.random() * 5 + 0.1)
        gamma = float(rng.random() * 2 + 0.2)
        delta = float(rng.random() * 2 + 0.2)
        na = float(rng.random() * 1e4 + 10)
        eps = float(rng.random() * 2 + 0.01)
        window = bandwidth_admissible_range(c1, c2, gamma, delta, na, eps)
        if window is None:
            continue
        hits += 1
        F = lambda h: c1 * h**gamma + c2 / (na * h**delta)
        for h in (window.lo, window.hi, 0.5 * (window.lo + window.hi)):
            assert F(h) <= eps * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# support geometry and degree ratios
# ---------------------------------------------------------------------------


def test_measure_retention_examples():
    est = measure_retaining_estimate(UNIT, [0.5], 0.1, 10_000)
    assert est.ratio == 1.0
    edge = measure_retaining_estimate(UNIT, [0.0], 0.5, 100_000)
    assert edge.ci_lo <= 0.5 <= edge.ci_hi
    cube = UniformCube(lo=(-1.0, -1.0), hi=(1.0, 1.0))
    corner = measure_retaining_estimate(cube, [1.0, 1.0], 0.8, 100_000)
    assert corner.ratio >= 0.25 - 3.0 * 0.005  # 1 / 2^d for the square's corner
    with pytest.raises(InvalidInputError):
        measure_retaining_estimate(UNIT, [0.5], 0.1, 50)
    with pytest.raises(InvalidInputError):
        measure_retaining_estimate(UNIT, [2.0], 0.1, 1000)


def test_degree_ratio_examples():
    ratios = degree_ratio_check(UNIT, INDICATOR, [0.5], [0.01])
    assert ratios[0][1] == pytest.approx(2.0, rel=1e-9)
    boundary = degree_ratio_check(UNIT, INDICATOR, [0.0], [0.01])
    assert boundary[0][1] == pytest.approx(1.0, rel=1e-9)
    gauss = degree_ratio_check(GaussianDensity(mean=(0.0,), stddev=1.0),
                               INDICATOR, [0.0], [0.01, 0.001])
    assert gauss[-1][1] == pytest.approx(2.0 / math.sqrt(2 * math.pi), rel=1e-2)
    with pytest.raises(InvalidInputError):
        degree_ratio_check(UNIT, INDICATOR, [0.5], [0.01, 0.02])


def test_lebesgue_bracket_merges_for_indicator():
    lo, hi = lebesgue_ratio_bracket(UNIT, INDICATOR, [0.5])
    assert lo == pytest.approx(1.0) and hi == pytest.approx(2.0)

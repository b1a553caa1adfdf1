"""Analytic quantities and closed-form bounds for graph-neighbor averaging.

Everything the estimator's distribution theory predicts is computed here:
the local connection parameter

    c_n(x) = integral of  alpha K((x - z)/h) p(z) dz,

the local degree d_n(x) = n c_n(x), the smoothed target value

    b_n(f, x) = T(f, x) / c_n(x),   T(f, x) = integral of f(z) k(x, z) p(z) dz,

the exact estimator expectation b_n (1 - (1 - c_n)^n), variance and
concentration envelopes, the uniform bias bound, degree lower bounds under
the measure-retaining support condition, and the pointwise/integrated risk
bounds with their admissible-bandwidth window.

Integrals use closed forms where available (interval overlap and ball-ball
intersections for indicator kernels over uniform densities) and the adaptive
quadrature engine otherwise, always with a reported error estimate.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError
from .model import (
    Density,
    IndicatorKernel,
    KernelSpec,
    Regression,
    UniformBall,
    UniformCube,
    as_point,
    unit_ball_volume,
)
from .quadrature import QuadResult, integrate_box
from .stats import wilson_interval

__all__ = [
    "RiskBoundReport",
    "BandwidthRange",
    "RetentionEstimate",
    "WindowMoments",
    "window_moments",
    "local_connection",
    "operator_value",
    "smoothed_value",
    "expectation_gnw",
    "variance_upper_bound",
    "variance_lower_bound",
    "concentration_rate",
    "concentration_envelope",
    "degree_concentration_bound",
    "bias_uniform_bound",
    "unit_ball_volume",
    "degree_lower_bound",
    "proxy_gap",
    "pointwise_risk_bound",
    "sqrt_density_integral",
    "uniform_density_risk_bound",
    "holder_density_risk_bound",
    "bandwidth_admissible_range",
    "measure_retaining_estimate",
    "degree_ratio_check",
    "lebesgue_ratio_bracket",
]


# ---------------------------------------------------------------------------
# Window integrals
# ---------------------------------------------------------------------------


def _closed_form_connection(density: Density, kernel: KernelSpec, x: np.ndarray) -> float | None:
    """Exact c_n for indicator kernels over uniform densities, else None."""
    if not isinstance(kernel.base, IndicatorKernel):
        return None
    # For these densities the sampling window is the kernel's support ball
    # itself, so c_n is alpha times the window mass.
    if isinstance(density, UniformBall) or (isinstance(density, UniformCube)
                                            and density.dim == 1):
        return kernel.alpha * density.window_mass(x, kernel.support_radius)
    return None


def _window_integral(
    density: Density,
    kernel: KernelSpec,
    x: np.ndarray,
    weight: Regression | None = None,
    rel_tol: float = 1e-8,
) -> QuadResult:
    """Integral of k(x, z) p(z) [f(z)] dz over the kernel's support window."""
    wr = kernel.support_radius
    box_lo, box_hi = x - wr, x + wr
    dens_lo, dens_hi = density.bounding_box()
    lo = np.maximum(box_lo, dens_lo)
    hi = np.minimum(box_hi, dens_hi)
    if np.any(hi <= lo):
        return QuadResult(0.0, 0.0, 0)

    spheres = [(x, r) for r in kernel.kink_radii]
    spheres.extend(density.breakpoint_spheres())
    if weight is not None:
        spheres.extend(weight.breakpoint_spheres())
    planes = density.breakpoint_planes()

    if weight is None:

        def integrand(pts):
            return kernel.edge_probabilities(x, pts) * density.pdf(pts)

    else:

        def integrand(pts):
            return kernel.edge_probabilities(x, pts) * density.pdf(pts) * weight.evaluate(pts)

    return integrate_box(integrand, lo, hi, rel_tol=rel_tol, planes=planes, spheres=spheres)


def local_connection(density: Density, kernel: KernelSpec, x, rel_tol: float = 1e-8):
    """c_n(x) with its quadrature error estimate (0 for closed forms)."""
    x = as_point(x, dim=density.dim)
    closed = _closed_form_connection(density, kernel, x)
    if closed is not None:
        return closed, 0.0
    res = _window_integral(density, kernel, x, rel_tol=rel_tol)
    return res.value, res.error


def operator_value(density: Density, kernel: KernelSpec, regression: Regression, x,
                   rel_tol: float = 1e-8):
    """T(f, x) = integral of f(z) k(x, z) p(z) dz, with error estimate."""
    x = as_point(x, dim=density.dim)
    res = _window_integral(density, kernel, x, weight=regression, rel_tol=rel_tol)
    return res.value, res.error


@dataclass(frozen=True)
class WindowMoments:
    """c_n(x) and T(f, x) at one query point, with their error estimates.

    T is integrated only when c_n > 0; otherwise k(x, .) p vanishes, so T
    and its error are 0.
    """

    c_n: float
    c_err: float
    t_f: float
    t_err: float

    @property
    def b_n(self) -> float:
        """b_n(f, x) = T(f, x)/c_n(x), 0 when c_n = 0."""
        return self.t_f / self.c_n if self.c_n > 0.0 else 0.0

    @property
    def b_err(self) -> float:
        """Error estimate of b_n propagated from those of T and c_n."""
        if self.c_n <= 0.0:
            return 0.0
        return (self.t_err + abs(self.b_n) * self.c_err) / self.c_n

    def expectation(self, n: int) -> float:
        """Exact estimator expectation  b_n (1 - (1 - c_n)^n)."""
        return self.b_n * (1.0 - (1.0 - self.c_n) ** n)


def window_moments(density: Density, kernel: KernelSpec, regression: Regression, x,
                   rel_tol: float = 1e-8) -> WindowMoments:
    """One pass over the window at x: c_n(x), then T(f, x) if c_n > 0."""
    x = as_point(x, dim=density.dim)
    c, c_err = local_connection(density, kernel, x, rel_tol=rel_tol)
    if c <= 0.0:
        return WindowMoments(c, c_err, 0.0, 0.0)
    t, t_err = operator_value(density, kernel, regression, x, rel_tol=rel_tol)
    return WindowMoments(c, c_err, t, t_err)


def smoothed_value(density: Density, kernel: KernelSpec, regression: Regression, x,
                   rel_tol: float = 1e-8):
    """b_n(f, x) = T(f, x)/c_n(x) (0 when c_n = 0) and its error estimate."""
    m = window_moments(density, kernel, regression, x, rel_tol=rel_tol)
    return m.b_n, m.b_err


def expectation_gnw(density: Density, kernel: KernelSpec, regression: Regression, x, n: int) -> float:
    """Exact estimator expectation  b_n(f, x) (1 - (1 - c_n(x))^n)."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    return window_moments(density, kernel, regression, x).expectation(n)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def variance_upper_bound(B: float, sigma_sq: float, d_n: float) -> float:
    """(261 B^2 + 65 sigma^2) / d_n, the sharp variance-proxy upper bound."""
    if d_n <= 0:
        raise InvalidInputError(f"d_n must be positive, got {d_n}")
    return (261.0 * B * B + 65.0 * sigma_sq) / d_n


def variance_lower_bound(sigma_sq: float, d_n: float) -> float:
    """sigma^2 (1 - e^{-d_n})^2 / d_n, the near-matching lower bound."""
    if d_n <= 0:
        raise InvalidInputError(f"d_n must be positive, got {d_n}")
    if sigma_sq < 0:
        raise InvalidInputError("sigma_sq must be nonnegative")
    return sigma_sq * (1.0 - math.exp(-d_n)) ** 2 / d_n


def concentration_rate(delta: float, B: float, sigma_bound: float) -> float:
    """Exponent C(delta, B, sigma) of the deviation envelope 6 e^{-C d_n}.

    C = min{ 3/14,  3 delta^2 / (32 sigma + 96 sigma^2),
             6 delta^2 / (192 B^2 + delta B) };
    the middle branch drops out for noiseless data (sigma = 0).
    """
    if delta <= 0 or B <= 0 or sigma_bound < 0:
        raise InvalidInputError("need delta > 0, B > 0, sigma_bound >= 0")
    branches = [3.0 / 14.0, 6.0 * delta**2 / (192.0 * B * B + delta * B)]
    if sigma_bound > 0:
        branches.append(3.0 * delta**2 / (32.0 * sigma_bound + 96.0 * sigma_bound**2))
    return min(branches)


def concentration_envelope(delta: float, B: float, sigma_bound: float, d_n: float):
    """(probability bound, C): bound = min(6 e^{-C d_n}, 1)."""
    if d_n < 0:
        raise InvalidInputError("d_n must be nonnegative")
    c = concentration_rate(delta, B, sigma_bound)
    return min(6.0 * math.exp(-c * d_n), 1.0), c


def degree_concentration_bound(d_n: float) -> float:
    """min(2 e^{-3 d_n / 14}, 1): chance the realized degree misses [d_n/2, 3d_n/2]."""
    if d_n < 0:
        raise InvalidInputError("d_n must be nonnegative")
    return min(2.0 * math.exp(-3.0 * d_n / 14.0), 1.0)


def bias_uniform_bound(L: float, a: float, M2: float, h: float) -> float:
    """2 L M2^a h^a, uniform over densities with the given support and x in Q."""
    if not (0.0 < a <= 1.0):
        raise InvalidInputError("a must lie in (0, 1]")
    if L < 0 or M2 <= 0 or h <= 0:
        raise InvalidInputError("need L >= 0, M2 > 0, h > 0")
    return 2.0 * L * M2**a * h**a


def degree_lower_bound(c0, d, M1, n, alpha, h, p0) -> float:
    """Guaranteed degree  c0 v_d M1^d n alpha h^d p0 / 2  under measure retention.

    Valid when M1 h < r0 for the support's retention radius r0 (caller-checked)
    and the density is at least p0 on the window.
    """
    vals = dict(c0=c0, d=d, M1=M1, n=n, alpha=alpha, h=h, p0=p0)
    for name, v in vals.items():
        if v <= 0:
            raise InvalidInputError(f"{name} must be positive, got {v}")
    return c0 * unit_ball_volume(int(d)) * M1**d * n * alpha * h**d * p0 / 2.0


def proxy_gap(b_n: float, c_n: float, n: int) -> float:
    """b_n^2 (1 - c_n)^{2n}: the exact gap between the proxy and the standard
    variance, and equally the squared gap between the proxy and standard bias."""
    if not (0.0 <= c_n <= 1.0):
        raise InvalidInputError("c_n must lie in [0, 1]")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return b_n * b_n * (1.0 - c_n) ** (2 * n)


def pointwise_risk_bound(L, a, M2, B, sigma_sq, c0, d, M1, n, alpha, h, p0) -> float:
    """4 L^2 M2^{2a} h^{2a} + (1044 B^2 + 260 sigma^2) / (c0 v_d M1^d n alpha h^d p0)."""
    if not (0.0 < a <= 1.0):
        raise InvalidInputError("a must lie in (0, 1]")
    if L < 0 or sigma_sq < 0 or B < 0:
        raise InvalidInputError("L, B, sigma_sq must be nonnegative")
    denom_inputs = dict(c0=c0, M1=M1, n=n, alpha=alpha, h=h, p0=p0, M2=M2)
    for name, v in denom_inputs.items():
        if v <= 0:
            raise InvalidInputError(f"{name} must be positive, got {v}")
    bias_term = 4.0 * L * L * M2 ** (2.0 * a) * h ** (2.0 * a)
    var_term = (1044.0 * B * B + 260.0 * sigma_sq) / (
        c0 * unit_ball_volume(int(d)) * M1**d * n * alpha * h**d * p0
    )
    return bias_term + var_term


def sqrt_density_integral(density: Density, rel_tol: float = 1e-8) -> tuple[float, float]:
    """integral of sqrt(p(x)) dx over the support, by quadrature with error."""
    lo, hi = density.bounding_box()
    res = integrate_box(
        lambda pts: np.sqrt(density.pdf(pts)),
        lo,
        hi,
        rel_tol=rel_tol,
        planes=density.breakpoint_planes(),
        spheres=density.breakpoint_spheres(),
    )
    return res.value, res.error


@dataclass(frozen=True)
class BandwidthRange:
    lo: float
    hi: float
    rate_bound: float | None = None


@dataclass(frozen=True)
class RiskBoundReport:
    pointwise_bound: float
    integrated_bound: float
    holder_integrated_bound: float | None = None
    bandwidth_interval: tuple[float, float] | None = None
    rate_bound: float | None = None
    quadrature_error: float = 0.0


def _bandwidth_window(c1, c2, gamma, delta, n_alpha, epsilon, rate_exponent):
    """(interval, rate bound) where C1 h^gamma + C2/(n alpha h^delta) <= epsilon,
    or (None, None) without an epsilon or when that window is empty."""
    if epsilon is None:
        return None, None
    rng = bandwidth_admissible_range(c1, c2, gamma, delta, n_alpha, epsilon, r=rate_exponent)
    if rng is None:
        return None, None
    return (rng.lo, rng.hi), rng.rate_bound


def uniform_density_risk_bound(*, L, a, M2, B, sigma_sq, c0, d, M1, n, alpha, h, p0,
                               r0=None, epsilon=None, rate_exponent=None) -> RiskBoundReport:
    """Integrated-risk bound for a density at least p0 on its support.

    Requires M1 h < r0 (checked when r0 is given); the bound coincides with
    the pointwise formula with p0(x) replaced by the constant p0.  With
    ``epsilon`` (and optionally ``rate_exponent``) supplied, the report also
    carries the bandwidth window on which the bound stays below epsilon.
    """
    if r0 is not None and not (M1 * h < r0):
        raise InvalidInputError(
            f"uniform-density bound needs M1*h < r0; got {M1 * h} >= {r0}"
        )
    value = pointwise_risk_bound(L=L, a=a, M2=M2, B=B, sigma_sq=sigma_sq, c0=c0, d=d,
                                 M1=M1, n=n, alpha=alpha, h=h, p0=p0)
    c1 = 4.0 * L ** 2 * M2 ** (2.0 * a)
    c2 = (1044.0 * B ** 2 + 260.0 * sigma_sq) / (
        p0 * c0 * unit_ball_volume(int(d)) * M1 ** d
    )
    interval, rate = (None, None) if c1 <= 0 else _bandwidth_window(
        c1, c2, 2.0 * a, d, n * alpha, epsilon, rate_exponent,
    )
    return RiskBoundReport(pointwise_bound=value, integrated_bound=value,
                           bandwidth_interval=interval, rate_bound=rate)


def holder_density_risk_bound(*, L, a, M2, B, sigma_sq, c0, d, M1, n, alpha, h, beta,
                              L_density=None, r0=None, p0=None, density=None,
                              sqrt_p_integral=None, epsilon=None,
                              rate_exponent=None) -> RiskBoundReport:
    """Integrated-risk bound for a beta-Hoelder density with integrable square root.

    The bound is

        C1 h^{min(2a, beta/2)} + C2 / (n alpha h^{d + beta})

    with C1 = max(4 L^2 M2^{2a}, 4 B^2 L_density^{1/2} M1^{beta/2} * I_sqrtp)
    and  C2 = (1044 B^2 + 260 sigma^2) / (c0 v_d L_density M1^{d + beta}).
    L_density defaults to L.  I_sqrtp is ``sqrt_p_integral`` when given and is
    integrated from ``density`` otherwise.  Requires h < min(r0 / M1, 1)
    (checked when r0 is given).  The pointwise bound uses p0, which defaults
    to L_density (M1 h)^beta.  With ``epsilon`` (and optionally
    ``rate_exponent``) supplied, the report also carries the bandwidth window
    on which the bound stays below epsilon.
    """
    if L_density is None:
        L_density = L
    if r0 is not None and not (h < min(r0 / M1, 1.0)):
        raise InvalidInputError(
            f"Hoelder-density bound needs h < min(r0/M1, 1); got h={h}"
        )
    if L_density <= 0:
        raise InvalidInputError("density Hoelder constant must be positive")
    if sqrt_p_integral is not None:
        i_sqrtp, q_err = sqrt_p_integral, 0.0
    elif density is not None:
        i_sqrtp, q_err = sqrt_density_integral(density)
    else:
        raise InvalidInputError("Hoelder-density bound needs density or sqrt_p_integral")
    c1 = max(
        4.0 * L * L * M2 ** (2.0 * a),
        4.0 * B * B * math.sqrt(L_density) * M1 ** (beta / 2.0) * i_sqrtp,
    )
    c2 = (1044.0 * B * B + 260.0 * sigma_sq) / (
        c0 * unit_ball_volume(int(d)) * L_density * M1 ** (d + beta)
    )
    value = c1 * h ** min(2.0 * a, beta / 2.0) + c2 / (n * alpha * h ** (d + beta))
    pw = pointwise_risk_bound(
        L=L, a=a, M2=M2, B=B, sigma_sq=sigma_sq, c0=c0, d=d, M1=M1,
        n=n, alpha=alpha, h=h, p0=p0 if p0 is not None else L_density * M1**beta * h**beta,
    )
    interval, rate = _bandwidth_window(c1, c2, min(2.0 * a, beta / 2.0), d + beta, n * alpha,
                                       epsilon, rate_exponent)
    return RiskBoundReport(
        pointwise_bound=pw,
        integrated_bound=value,
        holder_integrated_bound=value,
        bandwidth_interval=interval,
        rate_bound=rate,
        quadrature_error=q_err,
    )


def bandwidth_admissible_range(C1, C2, gamma, Delta, n_alpha, epsilon, r=None):
    """Bandwidths where F(h) = C1 h^gamma + C2/(n alpha h^Delta) stays <= epsilon.

    Returns None when the window [ (2 C2 / (n alpha eps))^{1/Delta},
    (eps / (2 C1))^{1/gamma} ] is empty.  With an exponent ``r`` supplied the
    achievable-rate bound 2 C1^{Delta/(Delta+gamma)} C2^{gamma/(Delta+gamma)}
    / (n alpha)^r is attached.
    """
    for name, v in dict(C1=C1, C2=C2, gamma=gamma, Delta=Delta,
                        n_alpha=n_alpha, epsilon=epsilon).items():
        if v <= 0:
            raise InvalidInputError(f"{name} must be positive, got {v}")
    lo = (2.0 * C2 / (n_alpha * epsilon)) ** (1.0 / Delta)
    hi = (epsilon / (2.0 * C1)) ** (1.0 / gamma)
    rate = None
    if r is not None:
        w = Delta + gamma
        rate = 2.0 * C1 ** (Delta / w) * C2 ** (gamma / w) / n_alpha**r
    if lo > hi:
        return None
    return BandwidthRange(lo=lo, hi=hi, rate_bound=rate)


# ---------------------------------------------------------------------------
# Support geometry and asymptotic-degree checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetentionEstimate:
    ratio: float
    ci_lo: float
    ci_hi: float
    sample_count: int


def measure_retaining_estimate(density: Density, x, r: float, sample_count: int,
                               seed: int = 0) -> RetentionEstimate:
    """Monte Carlo estimate of  m(Q intersect B_r(x)) / m(B_r(x)).

    Samples uniformly in the ball around x and counts support membership;
    Wilson 99% interval.
    """
    x = as_point(x, dim=density.dim)
    if r <= 0:
        raise InvalidInputError("r must be positive")
    if sample_count < 100:
        raise InvalidInputError("sample_count must be >= 100")
    if not bool(density.support_contains(x[None, :])[0]):
        raise InvalidInputError("x must lie in the support")
    gen = rngmod.stream(seed, 71, 0)
    d = density.dim
    direction = gen.standard_normal((sample_count, d))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = r * gen.random((sample_count, 1)) ** (1.0 / d)
    pts = x + direction / norms * radii
    hits = int(np.count_nonzero(density.support_contains(pts)))
    lo, hi = wilson_interval(hits, sample_count)
    return RetentionEstimate(hits / sample_count, lo, hi, sample_count)


def degree_ratio_check(density: Density, kernel: KernelSpec, x, h_sequence):
    """(h, c_n(x; h) / (alpha h^d)) along a decreasing bandwidth sequence.

    The final ratio should land between 0.5 v_d M1^d p(x) and v_d M2^d p(x)
    at continuity points of p; consumers assert that bracket with their own
    tolerance.
    """
    hs = [float(h) for h in h_sequence]
    if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
        raise InvalidInputError("h_sequence must be strictly decreasing")
    x = as_point(x, dim=density.dim)
    out = []
    for h in hs:
        k = KernelSpec(kernel.base, alpha=kernel.alpha, h=h, m1=kernel.m1, m2=kernel.m2)
        c, _ = local_connection(density, k, x)
        out.append((h, c / (kernel.alpha * h**density.dim)))
    return out


def lebesgue_ratio_bracket(density: Density, kernel: KernelSpec, x) -> tuple[float, float]:
    """The asymptotic bracket [0.5 v_d M1^d p(x), v_d M2^d p(x)]."""
    x = as_point(x, dim=density.dim)
    d = density.dim
    px = float(density.pdf(x[None, :])[0])
    vd = unit_ball_volume(d)
    return 0.5 * vd * kernel.m1**d * px, vd * kernel.m2**d * px

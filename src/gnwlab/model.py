"""Densities, kernels, regression functions and noise models.

These are the ingredients of a scenario: latent points are drawn from a
``Density``, edges fire with probability ``alpha * K((x - z) / h)`` for a
radial base kernel ``K``, labels are ``f(X) + eps`` for a ``Regression`` f
and a ``Noise`` model.  Every object is immutable after construction and
vectorised over numpy arrays of points.

The base kernels all take values in [0, 1] and satisfy the two envelope
conditions that the closed-form bounds rely on:

    K(z) >= 1/2 whenever ||z|| <= M1        (lower envelope)
    K(z) == 0  whenever ||z|| >  M2         (compact support)

``M1``/``M2`` are stored as declared constants; :func:`assumption_audit`
checks declarations against the actual kernel and reports witnesses for any
violation instead of silently trusting them.  Sampling and integration
windows never use the declared ``M2``: they use the base profile's own
support radius, so a kernel declared with a smaller ``M2`` still reaches
every point it can connect to.

Every density also describes its restriction to a window around a query
point: ``window_mass(x, radius)`` is the probability mass pi_w of a window
that contains the ball B(x, radius), and ``window_sample`` draws iid points
from p restricted to that same window.  A binomial point process restricted
to a set is again binomial, so Bin(n, pi_w) window points have the law of
the n-point draw's nodes in that window.  (The lower envelope could in
principle be replaced by continuity at 0 with K(0) = 1; only the envelope
form is supported here.)
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "as_point",
    "IndicatorKernel",
    "TriangleKernel",
    "HalfPlateauKernel",
    "KernelSpec",
    "UniformCube",
    "UniformBall",
    "GaussianDensity",
    "MixtureDensity",
    "ConstantFunction",
    "LinearFunction",
    "SinusoidFunction",
    "CuspFunction",
    "NoNoise",
    "BoundedUniformNoise",
    "RademacherNoise",
    "GaussianNoise",
    "AssumptionViolation",
    "AuditReport",
    "assumption_audit",
]


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-d float64 coordinate vector."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InvalidInputError(f"a point must be a flat coordinate vector, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise InvalidInputError(f"point has dimension {p.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("point coordinates must be finite")
    return p


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce to an (..., dim) array of points."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    if pts.shape[-1] != dim:
        if pts.ndim == 1 and dim == 1:
            pts = pts[:, None]
        else:
            raise InvalidInputError(f"points have dimension {pts.shape[-1]}, expected {dim}")
    return pts


# ---------------------------------------------------------------------------
# Base kernels (radial profiles)
# ---------------------------------------------------------------------------


class _RadialKernel:
    """A radial profile r -> K in [0, 1], compactly supported in r <= 1."""

    name: str = ""
    default_m1: float = 1.0
    default_m2: float = 1.0
    # The profile vanishes for r > support_radius, whatever M2 is declared.
    support_radius: float = 1.0
    # Radii (in units of h) where the profile is non-smooth; quadrature
    # splits its panels there.
    kink_radii: tuple[float, ...] = (1.0,)

    def profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self).__name__)


class IndicatorKernel(_RadialKernel):
    """K(z) = 1 inside the unit ball, 0 outside (the random geometric graph case)."""

    name = "indicator"
    kink_radii = (1.0,)

    def profile(self, r):
        return (np.asarray(r, dtype=float) <= 1.0).astype(float)


class TriangleKernel(_RadialKernel):
    """K(z) = min(1, max(0, 2 - 2||z||)): flat top to radius 1/2, linear ramp to 1."""

    name = "triangle"
    default_m1 = 0.75  # 2 - 2r >= 1/2 exactly for r <= 3/4
    kink_radii = (0.5, 1.0)

    def profile(self, r):
        return np.clip(2.0 - 2.0 * np.asarray(r, dtype=float), 0.0, 1.0)


class HalfPlateauKernel(_RadialKernel):
    """K(z) = 1 for ||z|| <= 1/2, then 1/2 out to ||z|| <= 1, then 0."""

    name = "half_plateau"
    kink_radii = (0.5, 1.0)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 0.5, 1.0, np.where(r <= 1.0, 0.5, 0.0))


_KERNELS_BY_NAME = {
    k.name: k for k in (IndicatorKernel(), TriangleKernel(), HalfPlateauKernel())
}


def kernel_by_name(name: str) -> _RadialKernel:
    try:
        return _KERNELS_BY_NAME[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown kernel base {name!r}; valid: {sorted(_KERNELS_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class KernelSpec:
    """A scaled edge kernel k(x, z) = alpha * K((x - z) / h).

    ``alpha`` in (0, 1] is the sparsity amplitude, ``h`` > 0 the latent
    bandwidth.  ``m1``/``m2`` are the declared envelope radii of the base
    kernel (defaults are exact for the shipped bases).
    """

    base: _RadialKernel
    alpha: float
    h: float
    m1: float = None  # type: ignore[assignment]
    m2: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidInputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.h < math.inf):
            raise InvalidInputError(f"h must be positive and finite, got {self.h}")
        if self.m1 is None:
            object.__setattr__(self, "m1", self.base.default_m1)
        if self.m2 is None:
            object.__setattr__(self, "m2", self.base.default_m2)
        if not (0.0 < self.m1 <= self.m2):
            raise InvalidInputError(f"need 0 < m1 <= m2, got m1={self.m1}, m2={self.m2}")

    # -- evaluation --------------------------------------------------------

    def base_eval(self, z) -> float:
        """K(z) for a single point z."""
        z = as_point(z)
        return float(self.base.profile(np.linalg.norm(z)))

    def profile_at(self, dist: np.ndarray) -> np.ndarray:
        """alpha * K(dist / h) for an array of distances."""
        return self.alpha * self.base.profile(np.asarray(dist, dtype=float) / self.h)

    def scaled_eval(self, x, z) -> float:
        """k(x, z) = alpha * K((x - z) / h); symmetric in (x, z)."""
        x = as_point(x)
        z = as_point(z, dim=x.shape[0])
        return float(self.profile_at(np.linalg.norm(x - z)))

    def edge_probabilities(self, x: np.ndarray, points: np.ndarray) -> np.ndarray:
        """k(x, X_i) for points of shape (..., d)."""
        dist = np.sqrt(np.sum((points - x) ** 2, axis=-1))
        return self.profile_at(dist)

    # -- geometry ----------------------------------------------------------

    @property
    def support_radius(self) -> float:
        """Radius beyond which k(x, .) vanishes: the base's own support * h."""
        return self.base.support_radius * self.h

    @property
    def kink_radii(self) -> tuple[float, ...]:
        """Absolute radii where z -> k(x, z) is non-smooth."""
        return tuple(r * self.h for r in self.base.kink_radii)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


class Density:
    """A latent-point density p on R^d with analytic support description."""

    # True when ``sample`` fills its output with one generator call, so the
    # first k rows of a (rows, ...) draw equal a (k, ...) draw bit for bit.
    prefix_stable = False

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def pdf(self, pts) -> np.ndarray:
        """p evaluated at an (..., d) array of points."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Draw points of shape (*shape, d)."""
        raise NotImplementedError

    def support_contains(self, pts) -> np.ndarray:
        """Boolean mask: point lies in supp(p)."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """A box containing (numerically) all of the density's mass."""
        raise NotImplementedError

    def window_mass(self, x: np.ndarray, radius: float) -> float:
        """pi_w: the mass p puts on this density's window around B(x, radius)."""
        raise NotImplementedError

    def window_sample(self, rng: np.random.Generator, x: np.ndarray, radius: float,
                      count: int) -> np.ndarray:
        """(count, d) iid points from p restricted to the window of ``window_mass``."""
        raise NotImplementedError

    # Geometry hints for adaptive quadrature: axis-aligned boundary planes
    # and boundary spheres of the support.
    def breakpoint_planes(self) -> list[list[float]]:
        return [[] for _ in range(self.dim)]

    def breakpoint_spheres(self) -> list[tuple[np.ndarray, float]]:
        return []


@dataclass(frozen=True)
class UniformCube(Density):
    """Uniform density on an axis-aligned box [lo, hi]."""

    prefix_stable = True

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise InvalidInputError("lo and hi must have the same length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise InvalidInputError("UniformCube requires lo < hi componentwise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.hi, self.lo)))

    def pdf(self, pts):
        pts = _as_points(pts, self.dim)
        inside = self.support_contains(pts)
        return np.where(inside, 1.0 / self.volume, 0.0)

    def support_contains(self, pts):
        pts = _as_points(pts, self.dim)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def sample(self, rng, shape=()):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        u = rng.random(tuple(shape) + (self.dim,))
        return lo + u * (hi - lo)

    def bounding_box(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    def _window_box(self, x, radius):
        """The bounding box of B(x, radius), cut to the cube."""
        return np.maximum(x - radius, self.lo), np.minimum(x + radius, self.hi)

    def window_mass(self, x, radius):
        lo, hi = self._window_box(x, radius)
        if np.any(hi <= lo):
            return 0.0
        return float(np.prod((hi - lo) / np.subtract(self.hi, self.lo)))

    def window_sample(self, rng, x, radius, count):
        lo, hi = self._window_box(x, radius)
        return np.minimum(lo + rng.random((count, self.dim)) * (hi - lo), hi)

    def breakpoint_planes(self):
        return [[self.lo[k], self.hi[k]] for k in range(self.dim)]


@dataclass(frozen=True)
class UniformBall(Density):
    """Uniform density on a Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        object.__setattr__(self, "center", c)
        if not (self.radius > 0):
            raise InvalidInputError("UniformBall radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim

    def pdf(self, pts):
        inside = self.support_contains(pts)
        return np.where(inside, 1.0 / self.volume, 0.0)

    def support_contains(self, pts):
        pts = _as_points(pts, self.dim)
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)
        return d2 <= self.radius**2

    def sample(self, rng, shape=()):
        return _ball_points(rng, np.asarray(self.center), self.radius, tuple(shape))

    def bounding_box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def window_mass(self, x, radius):
        sep = float(np.linalg.norm(x - np.asarray(self.center)))
        return _ball_intersection_volume(self.dim, radius, self.radius, sep) / self.volume

    def window_sample(self, rng, x, radius, count):
        """Rejection from the smaller of B(x, radius) and the support ball.

        A candidate is kept when it lies in both balls.  The expected number
        of candidates per kept point is vol(smaller ball) / vol(intersection),
        so a row of Bin(n, pi_w) points costs at most n candidates on average.
        """
        c = np.asarray(self.center)
        small, r_small = (x, radius) if radius <= self.radius else (c, self.radius)
        sep = float(np.linalg.norm(x - c))
        accept = (_ball_intersection_volume(self.dim, radius, self.radius, sep)
                  / (unit_ball_volume(self.dim) * r_small**self.dim))
        out = np.empty((count, self.dim))
        filled = 0
        while filled < count:
            need = count - filled
            cand = _ball_points(rng, small, r_small,
                                (min(_REJECTION_CHUNK, int(need / accept) + 16),))
            keep = cand[(np.sum((cand - x) ** 2, axis=-1) <= radius**2)
                        & (np.sum((cand - c) ** 2, axis=-1) <= self.radius**2)][:need]
            out[filled:filled + keep.shape[0]] = keep
            filled += keep.shape[0]
        return out

    def breakpoint_spheres(self):
        return [(np.asarray(self.center), float(self.radius))]


@dataclass(frozen=True)
class GaussianDensity(Density):
    """Isotropic Gaussian with the given mean and per-coordinate stddev."""

    prefix_stable = True

    mean: tuple[float, ...]
    stddev: float

    def __post_init__(self):
        m = tuple(float(v) for v in np.atleast_1d(self.mean))
        object.__setattr__(self, "mean", m)
        if not (self.stddev > 0):
            raise InvalidInputError("Gaussian stddev must be positive")

    @property
    def dim(self) -> int:
        return len(self.mean)

    def pdf(self, pts):
        pts = _as_points(pts, self.dim)
        d2 = np.sum((pts - np.asarray(self.mean)) ** 2, axis=-1)
        s = self.stddev
        norm = (2.0 * math.pi) ** (self.dim / 2.0) * s**self.dim
        return np.exp(-0.5 * d2 / (s * s)) / norm

    def support_contains(self, pts):
        pts = _as_points(pts, self.dim)
        return np.ones(pts.shape[:-1], dtype=bool)

    def sample(self, rng, shape=()):
        z = rng.standard_normal(tuple(shape) + (self.dim,))
        return np.asarray(self.mean) + self.stddev * z

    def bounding_box(self):
        # 12 sigma holds all mass to far below any tolerance used here
        c = np.asarray(self.mean)
        return c - 12.0 * self.stddev, c + 12.0 * self.stddev

    def _window_axes(self, x, radius):
        """Standardised per-axis bounds of the window box [x - radius, x + radius].

        An axis whose interval lies wholly above the mean is reflected
        (flip), so both CDF values are taken in the lower tail, where ndtr
        keeps its relative accuracy.  Returns (flip, cdf_lo, cdf_width).
        """
        from scipy.special import ndtr  # imported here: most scenarios never need it

        m = np.asarray(self.mean)
        a = (x - radius - m) / self.stddev
        b = (x + radius - m) / self.stddev
        flip = a > 0.0
        cdf_lo = ndtr(np.where(flip, -b, a))
        return flip, cdf_lo, ndtr(np.where(flip, -a, b)) - cdf_lo

    def window_mass(self, x, radius):
        return float(np.prod(self._window_axes(x, radius)[2]))

    def window_sample(self, rng, x, radius, count):
        """Inverse-CDF draws per axis from the normal truncated to the box."""
        from scipy.special import ndtri

        flip, cdf_lo, width = self._window_axes(x, radius)
        z = ndtri(cdf_lo + rng.random((count, self.dim)) * width)
        pts = np.asarray(self.mean) + self.stddev * np.where(flip, -z, z)
        return np.clip(pts, x - radius, x + radius)


@dataclass(frozen=True)
class MixtureDensity(Density):
    """Finite mixture of densities with positive weights summing to 1."""

    components: tuple[tuple[float, Density], ...]

    def __post_init__(self):
        comps = tuple((float(w), dens) for w, dens in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise InvalidInputError("mixture needs at least one component")
        if any(w <= 0 for w, _ in comps):
            raise InvalidInputError("mixture weights must be positive")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"mixture weights must sum to 1, got {total}")
        dims = {dens.dim for _, dens in comps}
        if len(dims) != 1:
            raise InvalidInputError("mixture components must share a dimension")

    @property
    def dim(self) -> int:
        return self.components[0][1].dim

    def pdf(self, pts):
        return sum(w * dens.pdf(pts) for w, dens in self.components)

    def support_contains(self, pts):
        mask = self.components[0][1].support_contains(pts)
        for _, dens in self.components[1:]:
            mask = mask | dens.support_contains(pts)
        return mask

    def sample(self, rng, shape=()):
        shape = tuple(shape)
        u = rng.random(shape)
        cum = np.cumsum([w for w, _ in self.components])
        idx = np.searchsorted(cum, u, side="right")
        # Draw from every component (fixed stream consumption), then select.
        draws = [dens.sample(rng, shape) for _, dens in self.components]
        out = draws[0]
        for k in range(1, len(draws)):
            out = np.where((idx == k)[..., None], draws[k], out)
        return out

    def bounding_box(self):
        boxes = [dens.bounding_box() for _, dens in self.components]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi

    def _window_masses(self, x, radius) -> np.ndarray:
        return np.array([w * dens.window_mass(x, radius) for w, dens in self.components])

    def window_mass(self, x, radius):
        return math.fsum(self._window_masses(x, radius))

    def window_sample(self, rng, x, radius, count):
        """Split the points over the components with weights w_k pi_k (a
        multinomial split), then draw each component's share from its own
        window.  Every component window contains B(x, radius)."""
        if count == 0:
            return np.empty((0, self.dim))
        masses = self._window_masses(x, radius)
        idx = np.searchsorted(np.cumsum(masses) / masses.sum(), rng.random(count),
                              side="right")
        idx = np.minimum(idx, np.flatnonzero(masses)[-1])
        out = np.empty((count, self.dim))
        for k, (_, dens) in enumerate(self.components):
            sel = idx == k
            if sel.any():
                out[sel] = dens.window_sample(rng, x, radius, int(np.count_nonzero(sel)))
        return out

    def breakpoint_planes(self):
        planes = [[] for _ in range(self.dim)]
        for _, dens in self.components:
            for k, vals in enumerate(dens.breakpoint_planes()):
                planes[k].extend(vals)
        return planes

    def breakpoint_spheres(self):
        out = []
        for _, dens in self.components:
            out.extend(dens.breakpoint_spheres())
        return out


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit Euclidean ball in d dimensions."""
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# Candidates drawn per rejection round of UniformBall.window_sample.
_REJECTION_CHUNK = 1 << 16


def _ball_points(rng, center: np.ndarray, radius: float, shape: tuple) -> np.ndarray:
    """Uniform points in a ball, of shape (*shape, d): a normal direction, then
    a radius drawn as radius * U^(1/d)."""
    d = center.shape[0]
    direction = rng.standard_normal(shape + (d,))
    norms = np.sqrt(np.sum(direction**2, axis=-1, keepdims=True))
    norms[norms == 0] = 1.0
    radii = radius * rng.random(shape + (1,)) ** (1.0 / d)
    return center + direction / norms * radii


def _ball_cap_volume(d: int, radius: float, plane_dist: float) -> float:
    """Volume of the spherical cap cut off beyond a plane at signed distance
    ``plane_dist`` from the center (negative distance -> more than half)."""
    if plane_dist >= radius:
        return 0.0
    if plane_dist <= -radius:
        return unit_ball_volume(d) * radius**d
    from scipy.special import betainc  # imported here: most scenarios never need it

    full = unit_ball_volume(d) * radius**d
    x = 1.0 - (plane_dist / radius) ** 2
    half_cap = 0.5 * full * betainc((d + 1) / 2.0, 0.5, x)
    return half_cap if plane_dist >= 0.0 else full - half_cap


def _ball_intersection_volume(d, r1, r2, separation) -> float:
    """Volume of the intersection of two d-balls with center distance s."""
    if separation >= r1 + r2:
        return 0.0
    if separation <= abs(r1 - r2):
        return unit_ball_volume(d) * min(r1, r2) ** d
    a1 = (separation**2 + r1**2 - r2**2) / (2.0 * separation)
    return _ball_cap_volume(d, r1, a1) + _ball_cap_volume(d, r2, separation - a1)


# ---------------------------------------------------------------------------
# Regression functions
# ---------------------------------------------------------------------------


class Regression:
    """A bounded regression function with an optional declared Hoelder class."""

    bound: float  # declared sup norm B
    holder: tuple[float, float] | None  # declared (exponent a, constant L)

    def evaluate(self, pts) -> np.ndarray:
        raise NotImplementedError

    def eval_one(self, x) -> float:
        x = as_point(x)
        return float(self.evaluate(x[None, :])[0])

    # Points where the function is non-smooth, used as quadrature hints.
    def breakpoint_spheres(self) -> list[tuple[np.ndarray, float]]:
        return []


@dataclass(frozen=True)
class ConstantFunction(Regression):
    value: float
    bound: float = None  # type: ignore[assignment]
    holder: tuple[float, float] | None = (1.0, 0.0)

    def __post_init__(self):
        if self.bound is None:
            object.__setattr__(self, "bound", abs(float(self.value)))

    def evaluate(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], float(self.value))


@dataclass(frozen=True)
class LinearFunction(Regression):
    """f(x) = slope . x + intercept; the sup bound B over Q must be declared."""

    slope: tuple[float, ...]
    intercept: float
    bound: float
    holder: tuple[float, float] | None = None

    def __post_init__(self):
        s = tuple(float(v) for v in np.atleast_1d(self.slope))
        object.__setattr__(self, "slope", s)
        if self.holder is None:
            object.__setattr__(self, "holder", (1.0, float(np.linalg.norm(s))))

    def evaluate(self, pts):
        pts = _as_points(pts, len(self.slope))
        return pts @ np.asarray(self.slope) + self.intercept


@dataclass(frozen=True)
class SinusoidFunction(Regression):
    """f(x) = amplitude * sin(2 pi frequency x_1 + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    bound: float = None  # type: ignore[assignment]
    holder: tuple[float, float] | None = None

    def __post_init__(self):
        if self.bound is None:
            object.__setattr__(self, "bound", abs(float(self.amplitude)))
        if self.holder is None:
            lip = abs(2.0 * math.pi * self.frequency * self.amplitude)
            object.__setattr__(self, "holder", (1.0, lip))

    def evaluate(self, pts):
        pts = np.asarray(pts, dtype=float)
        x1 = pts[..., 0]
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * x1 + self.phase)


@dataclass(frozen=True)
class CuspFunction(Regression):
    """f(x) = min(L ||x - anchor||^a, B): an a-Hoelder cusp clamped at B."""

    scale: float  # L
    exponent: float  # a in (0, 1]
    anchor: tuple[float, ...]
    bound: float  # B, also the clamp level
    holder: tuple[float, float] | None = None

    def __post_init__(self):
        a = tuple(float(v) for v in np.atleast_1d(self.anchor))
        object.__setattr__(self, "anchor", a)
        if not (0.0 < self.exponent <= 1.0):
            raise InvalidInputError("cusp exponent must lie in (0, 1]")
        if self.scale < 0:
            raise InvalidInputError("cusp scale must be nonnegative")
        if self.holder is None:
            object.__setattr__(self, "holder", (float(self.exponent), float(self.scale)))

    def evaluate(self, pts):
        pts = _as_points(pts, len(self.anchor))
        r = np.sqrt(np.sum((pts - np.asarray(self.anchor)) ** 2, axis=-1))
        return np.minimum(self.scale * r**self.exponent, self.bound)

    def breakpoint_spheres(self):
        spheres = [(np.asarray(self.anchor), 0.0)]
        if self.scale > 0 and self.bound < math.inf:
            clamp_r = (self.bound / self.scale) ** (1.0 / self.exponent)
            spheres.append((np.asarray(self.anchor), float(clamp_r)))
        return spheres


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


class Noise:
    """Centered label noise; exposes the a.s. bound and the exact variance.

    The bound feeds the exponential tail machinery (which needs |eps| <= sigma
    almost surely); the variance feeds the second-moment machinery.  They are
    distinct fields on purpose and must never be conflated.
    """

    bound: float | None  # a.s. |eps| bound, None if unbounded
    variance: float

    def sample(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class NoNoise(Noise):
    bound: float | None = 0.0
    variance: float = 0.0

    def sample(self, rng, shape=()):
        return np.zeros(tuple(shape))


@dataclass(frozen=True)
class BoundedUniformNoise(Noise):
    """Uniform on [-sigma_b, sigma_b]; variance sigma_b^2 / 3."""

    sigma_b: float
    bound: float | None = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        if self.sigma_b < 0:
            raise InvalidInputError("sigma_b must be nonnegative")
        object.__setattr__(self, "bound", float(self.sigma_b))
        object.__setattr__(self, "variance", float(self.sigma_b) ** 2 / 3.0)

    def sample(self, rng, shape=()):
        return self.sigma_b * (2.0 * rng.random(tuple(shape)) - 1.0)


@dataclass(frozen=True)
class RademacherNoise(Noise):
    """+/- sigma_b with equal probability; variance sigma_b^2."""

    sigma_b: float
    bound: float | None = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        if self.sigma_b < 0:
            raise InvalidInputError("sigma_b must be nonnegative")
        object.__setattr__(self, "bound", float(self.sigma_b))
        object.__setattr__(self, "variance", float(self.sigma_b) ** 2)

    def sample(self, rng, shape=()):
        u = rng.random(tuple(shape))
        return np.where(u < 0.5, -self.sigma_b, self.sigma_b)


@dataclass(frozen=True)
class GaussianNoise(Noise):
    """Centered Gaussian with the given stddev; unbounded support."""

    stddev: float
    bound: float | None = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        if self.stddev < 0:
            raise InvalidInputError("stddev must be nonnegative")
        object.__setattr__(self, "bound", None)
        object.__setattr__(self, "variance", float(self.stddev) ** 2)

    def sample(self, rng, shape=()):
        return self.stddev * rng.standard_normal(tuple(shape))


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionViolation:
    assumption: str  # "K1", "K2" or "F1"
    witness: tuple
    detail: str


@dataclass(frozen=True)
class AuditReport:
    violations: tuple[AssumptionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def assumption_audit(
    kernel: KernelSpec,
    regression: Regression,
    grid_size: int,
    density: Density | None = None,
    seed: int = 0,
) -> AuditReport:
    """Check declared envelope radii and Hoelder class against samples.

    K1/K2 are checked on a radial grid of ``grid_size`` points over
    [0, 2 m2].  If a density is supplied and the regression declares a
    Hoelder class, the class inequality is checked on all grid_size^2
    point pairs from a seeded draw on the support.  Violations are data,
    not errors.
    """
    if grid_size < 2:
        raise InvalidInputError("grid_size must be >= 2")
    violations: list[AssumptionViolation] = []

    radii = np.linspace(0.0, 2.0 * kernel.m2, grid_size)
    values = kernel.base.profile(radii)
    for r, v in zip(radii, values):
        if r <= kernel.m1 and v < 0.5:
            violations.append(
                AssumptionViolation("K1", (float(r),), f"K={v:.6g} < 1/2 at radius {r:.6g} <= m1")
            )
        if v > 1.0 or (r > kernel.m2 and v > 0.0):
            violations.append(
                AssumptionViolation("K2", (float(r),), f"K={v:.6g} outside envelope at radius {r:.6g}")
            )

    if density is not None and regression.holder is not None:
        a, L = regression.holder
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 97))))
        pts = density.sample(rng, (grid_size,))
        on_support = density.support_contains(pts)
        pts = pts[on_support]
        fvals = regression.evaluate(pts)
        for i in range(len(pts)):
            gaps = np.abs(fvals - fvals[i])
            dist = np.sqrt(np.sum((pts - pts[i]) ** 2, axis=-1))
            allowed = L * dist**a * (1.0 + 1e-12) + 1e-15
            bad = np.nonzero(gaps > allowed)[0]
            if bad.size:
                j = int(bad[0])
                violations.append(
                    AssumptionViolation(
                        "F1",
                        (tuple(pts[i]), tuple(pts[j])),
                        f"|f(x)-f(z)|={gaps[j]:.6g} > L||x-z||^a={L * dist[j] ** a:.6g}",
                    )
                )
                break  # one witness is enough

    return AuditReport(tuple(violations))

import math
import tracemalloc

import numpy as np
import pytest

from gnwlab.errors import InvalidInputError
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
    assumption_audit,
    unit_ball_volume,
)
from gnwlab.quadrature import integrate_box

ALL_KERNELS = [IndicatorKernel(), TriangleKernel(), HalfPlateauKernel()]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_indicator_base_values():
    spec = KernelSpec(IndicatorKernel(), alpha=1.0, h=1.0)
    assert spec.base_eval([0.5]) == 1.0
    assert spec.base_eval([1.5]) == 0.0


def test_half_plateau_midband():
    spec = KernelSpec(HalfPlateauKernel(), alpha=1.0, h=1.0)
    assert spec.base_eval([0.75]) == 0.5


def test_scaled_eval_examples():
    spec = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    assert spec.scaled_eval([0.5], [0.55]) == 1.0
    assert spec.scaled_eval([0.5], [0.7]) == 0.0
    half = KernelSpec(IndicatorKernel(), alpha=0.5, h=0.1)
    assert half.scaled_eval([0.5], [0.55]) == 0.5


def test_scaled_eval_dimension_mismatch():
    spec = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    with pytest.raises(InvalidInputError):
        spec.scaled_eval([0.5], [0.5, 0.5])


@pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda k: k.name)
def test_kernel_envelope_invariant(base, rng):
    # 1/2 * [r <= m1] <= K <= [r <= m2] on 10^4 random radii
    spec = KernelSpec(base, alpha=1.0, h=1.0)
    r = rng.random(10_000) * 2.0 * spec.m2
    vals = base.profile(r)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[r <= spec.m1] >= 0.5)
    assert np.all(vals[r > spec.m2] == 0.0)


@pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda k: k.name)
def test_kernel_symmetry_exact(base, rng):
    spec = KernelSpec(base, alpha=0.7, h=0.3)
    for _ in range(200):
        x = rng.random(2)
        z = rng.random(2)
        assert spec.scaled_eval(x, z) == spec.scaled_eval(z, x)


def test_kernel_spec_validation():
    with pytest.raises(InvalidInputError):
        KernelSpec(IndicatorKernel(), alpha=1.5, h=0.1)
    with pytest.raises(InvalidInputError):
        KernelSpec(IndicatorKernel(), alpha=0.0, h=0.1)
    with pytest.raises(InvalidInputError):
        KernelSpec(IndicatorKernel(), alpha=0.5, h=-1.0)
    for h in (math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            KernelSpec(IndicatorKernel(), alpha=0.5, h=h)
    with pytest.raises(InvalidInputError):
        KernelSpec(IndicatorKernel(), alpha=0.5, h=0.1, m1=2.0, m2=1.0)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


DENSITIES = [
    UniformCube(lo=(0.0,), hi=(1.0,)),
    UniformCube(lo=(-1.0, 0.0), hi=(1.0, 2.0)),
    UniformBall(center=(0.0, 0.0), radius=1.0),
    GaussianDensity(mean=(0.0,), stddev=1.0),
    MixtureDensity(components=(
        (0.5, UniformCube(lo=(0.0,), hi=(1.0,))),
        (0.5, UniformCube(lo=(2.0,), hi=(3.0,))),
    )),
]


@pytest.mark.parametrize("dens", DENSITIES, ids=lambda d: type(d).__name__ + str(d.dim))
def test_density_integrates_to_one(dens):
    lo, hi = dens.bounding_box()
    res = integrate_box(
        dens.pdf, lo, hi, rel_tol=1e-9,
        planes=dens.breakpoint_planes(), spheres=dens.breakpoint_spheres(),
    )
    assert res.value == pytest.approx(1.0, rel=1e-6)


def test_density_eval_examples():
    cube = UniformCube(lo=(0.0,), hi=(1.0,))
    assert cube.pdf([[0.5]])[0] == 1.0
    assert cube.pdf([[1.5]])[0] == 0.0
    ball = UniformBall(center=(0.0, 0.0), radius=1.0)
    assert ball.pdf([[0.0, 0.0]])[0] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_density_sample_support(rng):
    cube = UniformCube(lo=(0.0,), hi=(1.0,))
    pt = cube.sample(rng)
    assert 0.0 <= pt[0] <= 1.0


def test_gaussian_sample_mean_clt(rng):
    # CLT gate: |mean| <= 4 / sqrt(10^6)
    dens = GaussianDensity(mean=(0.0,), stddev=1.0)
    draws = dens.sample(rng, (1_000_000,))
    assert abs(float(np.mean(draws))) <= 4e-3


def test_mixture_component_fractions(rng):
    mix = MixtureDensity(components=(
        (0.5, UniformCube(lo=(0.0,), hi=(1.0,))),
        (0.5, UniformCube(lo=(2.0,), hi=(3.0,))),
    ))
    draws = mix.sample(rng, (1_000_000,))
    frac = float(np.mean(draws[:, 0] <= 1.0))
    assert abs(frac - 0.5) <= 0.002


def test_cube_requires_ordered_bounds():
    with pytest.raises(InvalidInputError):
        UniformCube(lo=(1.0,), hi=(0.0,))


def test_mixture_weights_validated():
    with pytest.raises(InvalidInputError):
        MixtureDensity(components=((0.7, UniformCube(lo=(0.0,), hi=(1.0,))),))


def test_density_eval_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        UniformCube(lo=(0.0,), hi=(1.0,)).pdf([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# point layout
# ---------------------------------------------------------------------------


def _regressions(d):
    c = (0.1, -0.2, 0.3)[:d]
    return [
        ConstantFunction(0.4),
        LinearFunction(slope=(0.3, -1.7, 2.9)[:d], intercept=0.25, bound=10.0),
        SinusoidFunction(amplitude=0.8, frequency=2.0, phase=0.3),
        CuspFunction(scale=1.3, exponent=0.5, anchor=c, bound=0.9),
    ]


def _layout_calls(d):
    """Every density, regression and kernel evaluation of model.py in d dimensions."""
    c = np.array([0.1, -0.2, 0.3][:d])
    densities = [
        UniformCube(lo=(-1.0,) * d, hi=(1.0,) * d),
        UniformBall(center=tuple(c), radius=1.1),
        GaussianDensity(mean=tuple(-c), stddev=0.7),
        MixtureDensity(components=(
            (0.3, UniformCube(lo=(-1.0,) * d, hi=(0.5,) * d)),
            (0.7, UniformBall(center=tuple(c), radius=0.9)),
        )),
    ]
    calls = [(f"{type(dens).__name__}.{name}", getattr(dens, name))
             for dens in densities for name in ("pdf", "support_contains")]
    calls += [(f"{type(f).__name__}.evaluate", f.evaluate) for f in _regressions(d)]
    for base in ALL_KERNELS:
        spec = KernelSpec(base, alpha=0.7, h=0.6)
        calls.append((f"{base.name}.edge_probabilities",
                      lambda pts, spec=spec: spec.edge_probabilities(-c, pts)))
    return calls


# Block sizes of a concatenation: empty, single and odd-sized blocks among them.
_BLOCKS = (0, 1, 7, 64, 3, 129, 0, 5, 33, 1000)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_regressions_evaluate_a_concatenation_block_by_block(d):
    # The Monte Carlo driver evaluates the nodes of many window batches in
    # one call; each value must be the bits of the batch's own call.
    rng = np.random.default_rng(10 + d)
    blocks = [rng.uniform(-1.5, 1.5, (k, d)) for k in _BLOCKS]
    for f in _regressions(d):
        joined = f.evaluate(np.concatenate(blocks))
        apart = np.concatenate([f.evaluate(b) for b in blocks])
        assert joined.tobytes() == apart.tobytes(), type(f).__name__


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda b: b.name)
def test_edge_probabilities_with_a_centre_per_row(base, d):
    # The driver repeats each batch's query point once per node; that must
    # give the bits of each batch's broadcast centre.
    rng = np.random.default_rng(20 + d)
    spec = KernelSpec(base, alpha=0.7, h=0.6)
    centres = rng.uniform(-1.0, 1.0, (len(_BLOCKS), d))
    blocks = [c + rng.uniform(-0.7, 0.7, (k, d)) for c, k in zip(centres, _BLOCKS)]
    joined = spec.edge_probabilities(np.repeat(centres, _BLOCKS, axis=0), np.concatenate(blocks))
    apart = np.concatenate([spec.edge_probabilities(c, b) for c, b in zip(centres, blocks)])
    assert joined.tobytes() == apart.tobytes()
    assert apart.min() == 0.0 and apart.max() == 0.7


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("base", ALL_KERNELS, ids=lambda b: b.name)
def test_edge_probabilities_hold_at_most_two_input_arrays(base, d):
    rng = np.random.default_rng(30 + d)
    pts = rng.uniform(-1.0, 1.0, (100_000, d))
    x = rng.uniform(-0.5, 0.5, d)
    spec = KernelSpec(base, alpha=0.7, h=0.6)
    want = spec.profile_at(np.sqrt(np.sum((pts - x) ** 2, axis=-1)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        got = spec.edge_probabilities(x, pts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # the differences, then their distances; the result is the distance array
    assert peak <= pts.nbytes + pts.nbytes // d + 16384


@pytest.mark.parametrize("d", [1, 2, 3])
def test_models_ignore_point_layout(d):
    # integrate_box hands its integrands column-major points, and every
    # pinned theory value assumes they give the bits of C-ordered ones.
    rng = np.random.default_rng(d)
    pts = rng.uniform(-1.5, 1.5, (5000, d)) * 10.0 ** rng.uniform(-3, 0, (5000, 1))
    cols = np.asfortranarray(pts)
    assert d == 1 or not cols.flags.c_contiguous
    for name, call in _layout_calls(d):
        want, got = call(pts), call(cols)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# regression functions
# ---------------------------------------------------------------------------


def test_regression_examples():
    assert ConstantFunction(1.0).eval_one([0.3]) == 1.0
    ident = LinearFunction(slope=(1.0,), intercept=0.0, bound=1.0)
    assert ident.eval_one([0.25]) == 0.25
    cusp = CuspFunction(scale=1.0, exponent=0.5, anchor=(0.0,), bound=1.0)
    assert cusp.eval_one([0.04]) == pytest.approx(0.2, abs=1e-15)


def test_regression_bounded_on_support(rng):
    dens = UniformCube(lo=(0.0,), hi=(1.0,))
    funcs = [
        ConstantFunction(1.0),
        LinearFunction(slope=(1.0,), intercept=0.0, bound=1.0),
        SinusoidFunction(amplitude=0.8, frequency=2.0),
        CuspFunction(scale=1.0, exponent=0.5, anchor=(0.3,), bound=0.9),
    ]
    pts = dens.sample(rng, (10_000,))
    for f in funcs:
        vals = f.evaluate(pts)
        assert np.all(np.abs(vals) <= f.bound * (1.0 + 1e-12))


def test_cusp_clamps_at_bound():
    cusp = CuspFunction(scale=2.0, exponent=1.0, anchor=(0.0,), bound=0.5)
    assert cusp.eval_one([10.0]) == 0.5


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_noise_examples(rng):
    assert NoNoise().sample(rng) == 0.0
    val = RademacherNoise(sigma_b=1.0).sample(rng)
    assert val in (-1.0, 1.0)
    assert BoundedUniformNoise(sigma_b=3.0).variance == pytest.approx(3.0)
    assert RademacherNoise(sigma_b=0.5).variance == 0.25
    assert GaussianNoise(stddev=2.0).variance == 4.0
    assert GaussianNoise(stddev=1.0).bound is None


@pytest.mark.parametrize("noise", [
    BoundedUniformNoise(sigma_b=1.0),
    RademacherNoise(sigma_b=0.7),
    GaussianNoise(stddev=1.3),
], ids=lambda n: type(n).__name__)
def test_noise_moments_empirical(noise, rng):
    draws = noise.sample(rng, (1_000_000,))
    stddev = math.sqrt(noise.variance)
    # mean gate 4 sd / 1000; variance gate 5 standard errors of the second
    # moment (the noise is centered by construction)
    assert abs(float(np.mean(draws))) <= 4.0 * stddev / 1000.0
    second_moment = float(np.mean(draws**2))
    se_var = float(np.std(draws**2, ddof=1)) / 1000.0
    assert abs(second_moment - noise.variance) <= 5.0 * se_var + 1e-12


@pytest.mark.parametrize("noise", [
    NoNoise(),
    BoundedUniformNoise(sigma_b=1.0),
    RademacherNoise(sigma_b=0.7),
    GaussianNoise(stddev=1.3),
], ids=lambda n: type(n).__name__)
def test_noise_draws_are_prefixes(noise):
    # A window batch draws noise for its used rows only, the last draw of
    # its stream; that must be the first values of the whole batch's noise.
    whole = noise.sample(np.random.default_rng(5), (1000,))
    for k in (0, 1, 7, 500, 1000):
        assert noise.sample(np.random.default_rng(5), (k,)).tobytes() == whole[:k].tobytes()


def test_bounded_noise_respects_bound(rng):
    noise = BoundedUniformNoise(sigma_b=0.5)
    draws = noise.sample(rng, (100_000,))
    assert np.all(np.abs(draws) <= noise.bound)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_accepts_exact_declarations():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    report = assumption_audit(kernel, ConstantFunction(1.0), grid_size=64)
    assert report.ok


def test_audit_flags_overdeclared_m1():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1, m1=2.0, m2=2.0)
    report = assumption_audit(kernel, ConstantFunction(1.0), grid_size=64)
    assert any(v.assumption == "K1" for v in report.violations)
    witness_radii = [v.witness[0] for v in report.violations if v.assumption == "K1"]
    assert any(1.0 < r <= 2.0 for r in witness_radii)


def test_audit_flags_understated_holder_constant():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    f = LinearFunction(slope=(1.0,), intercept=0.0, bound=1.0, holder=(1.0, 0.5))
    report = assumption_audit(
        kernel, f, grid_size=32, density=UniformCube(lo=(0.0,), hi=(1.0,)),
    )
    assert any(v.assumption == "F1" for v in report.violations)


def test_audit_grid_size_validated():
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=0.1)
    with pytest.raises(InvalidInputError):
        assumption_audit(kernel, ConstantFunction(1.0), grid_size=1)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

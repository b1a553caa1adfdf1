"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside pytest's own verdicts.  Tolerances are fixed here, not
calibrated: 5 standard errors for two-sided equality checks, 3 standard
errors of one-sided slack for dominance checks, exact equality where the
quantity is discrete.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import IDENTITY, unit_interval_scenario
from gnwlab.cli import main as cli_main
from gnwlab.estimators import gnw_predict, nw_predict
from gnwlab.graph import decoupling_selftest, sample_neighborhood
from gnwlab.model import (
    BoundedUniformNoise,
    ConstantFunction,
    CuspFunction,
    GaussianDensity,
    GaussianNoise,
    IndicatorKernel,
    KernelSpec,
    RademacherNoise,
    SinusoidFunction,
    UniformBall,
    UniformCube,
)
from gnwlab.montecarlo import (
    estimate_integrated_risk,
    estimate_moments,
    estimate_pointwise_risk,
    estimate_tail,
    oracle_mean_over_latents,
    run_replications,
)
from gnwlab.theory import (
    concentration_envelope,
    degree_ratio_check,
    expectation_gnw,
    lebesgue_ratio_bracket,
    local_connection,
    pointwise_risk_bound,
    proxy_gap,
    smoothed_value,
    variance_lower_bound,
    variance_upper_bound,
)

N_GRID = (5, 10, 50)
H_GRID = (0.05, 0.1, 0.2)
FUNCS = (("const1", ConstantFunction(1.0)), ("identity", IDENTITY))
X = [0.5]
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. exact ratio-weight identities
# ---------------------------------------------------------------------------


def test_criterion_01_decoupling_exact():
    start = time.time()
    failures = []
    total_patterns = 0
    for n in range(1, 13):
        rep = decoupling_selftest(n)
        total_patterns += rep.patterns_checked
        if not rep.passed:
            failures.append((n, rep.first_counterexample))
    elapsed = time.time() - start
    _report(
        "criterion-01 decoupling identities",
        not failures and elapsed < 5.0,
        f"{total_patterns} patterns over n=1..12, 0 violations, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. exact expectation formula
# ---------------------------------------------------------------------------


def test_criterion_02_expectation_formula():
    start = time.time()
    R = 100_000
    worst_formula = 0.0
    worst_oracle = 0.0
    cells = 0
    for fname, f in FUNCS:
        for n in N_GRID:
            for h in H_GRID:
                cells += 1
                cfg = unit_interval_scenario(
                    n=n, h=h, regression=f, master_seed=41_000 + cells,
                )
                batch = run_replications(cfg, X, R, threads=2)
                b_n, _ = smoothed_value(cfg.density, cfg.kernel, cfg.regression, X)
                rep = estimate_moments(batch, b_n)
                exact = expectation_gnw(cfg.density, cfg.kernel, cfg.regression, X, n)
                # rule-of-three floor: an event of probability < 3/R can leave
                # all R draws identical (SE 0) while the formula still carries
                # its sub-resolution contribution
                slack = 5.0 * rep.se_mean + 3.0 / R
                gap = abs(rep.mean - exact)
                worst_formula = max(worst_formula, gap / slack)
                assert gap <= slack, f"{fname} n={n} h={h}: {rep.mean} vs {exact}"
                if n <= 12:
                    omean, ose = oracle_mean_over_latents(cfg, X, 1000)
                    slack_o = 5.0 * math.hypot(rep.se_mean, ose) + 3.0 / R
                    worst_oracle = max(worst_oracle, abs(rep.mean - omean) / slack_o)
                    assert abs(rep.mean - omean) <= slack_o, \
                        f"oracle {fname} n={n} h={h}"
    elapsed = time.time() - start
    _report(
        "criterion-02 expectation formula",
        elapsed < 120.0,
        f"{cells} cells, worst gap/slack formula {worst_formula:.2f}, "
        f"oracle {worst_oracle:.2f} (<= 1), {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 3 + 4. variance sandwich
# ---------------------------------------------------------------------------


def _noise_cases():
    yield "none", None, 0.0
    for s2 in (0.25, 1.0):
        yield f"gauss{s2}", GaussianNoise(stddev=math.sqrt(s2)), s2
        yield f"buni{s2}", BoundedUniformNoise(sigma_b=math.sqrt(3.0 * s2)), s2


def test_criterion_03_04_variance_sandwich():
    R = 30_000
    upper_ok = lower_ok = 0
    upper_n = lower_n = 0
    cell = 0
    for fname, f in FUNCS:
        for n in N_GRID:
            for h in H_GRID:
                c, _ = local_connection(
                    UniformCube(lo=(0.0,), hi=(1.0,)),
                    KernelSpec(IndicatorKernel(), alpha=1.0, h=h), X,
                )
                d_n = n * c
                for nname, noise, s2 in _noise_cases():
                    cell += 1
                    cfg = unit_interval_scenario(
                        n=n, h=h, regression=f, noise=noise, master_seed=43_000 + cell,
                    )
                    batch = run_replications(cfg, X, R, threads=2)
                    b_n, _ = smoothed_value(cfg.density, cfg.kernel, cfg.regression, X)
                    rep = estimate_moments(batch, b_n)
                    slack = 3.0 * rep.se_variance_proxy
                    upper = variance_upper_bound(1.0, s2, d_n)
                    upper_n += 1
                    ok_u = rep.variance_proxy <= upper + slack
                    upper_ok += ok_u
                    assert ok_u, f"upper {fname} n={n} h={h} {nname}"
                    if s2 > 0:
                        lower = variance_lower_bound(s2, d_n)
                        lower_n += 1
                        ok_l = rep.variance_proxy >= lower - slack
                        lower_ok += ok_l
                        assert ok_l, (
                            f"lower {fname} n={n} h={h} {nname}: "
                            f"{rep.variance_proxy} < {lower}"
                        )
    _report("criterion-03 sharp variance upper bound", upper_ok == upper_n,
            f"{upper_ok}/{upper_n} cells dominated (3-SE slack)")
    _report("criterion-04 variance lower bound", lower_ok == lower_n,
            f"{lower_ok}/{lower_n} noisy cells above the floor (3-SE slack)")


# ---------------------------------------------------------------------------
# 5. concentration envelope
# ---------------------------------------------------------------------------


def test_criterion_05_concentration_envelope():
    start = time.time()
    R = 1_000_000
    n = 100
    rows = []
    for h, want_dn in ((0.05, 10.0), (0.1, 20.0), (0.2, 40.0)):
        cfg = unit_interval_scenario(
            n=n, h=h, noise=RademacherNoise(sigma_b=0.5), master_seed=45_000 + int(1e3 * h),
        )
        c, _ = local_connection(cfg.density, cfg.kernel, X)
        d_n = n * c
        assert d_n == pytest.approx(want_dn, rel=1e-9)
        b_n, _ = smoothed_value(cfg.density, cfg.kernel, cfg.regression, X)
        batch = run_replications(cfg, X, R, threads=2)
        for t in estimate_tail(batch, b_n, (0.25, 0.5, 1.0)):
            bound, _ = concentration_envelope(t.delta, 1.0, 0.5, d_n)
            ok = t.frequency <= bound + 3.0 * t.se
            rows.append(ok)
            assert ok, f"d_n={d_n} delta={t.delta}: {t.frequency} > {bound}"
    elapsed = time.time() - start
    _report("criterion-05 concentration envelope", elapsed < 300.0,
            f"{sum(rows)}/{len(rows)} (d_n, delta) cells dominated, "
            f"{elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6. uniform bias bound
# ---------------------------------------------------------------------------


def test_criterion_06_bias_bound():
    dens = UniformCube(lo=(0.0,), hi=(1.0,))
    grid = np.linspace(0.0, 1.0, 101)
    worst_ratio = 0.0
    worst_err = 0.0
    for a in (0.5, 1.0):
        f = CuspFunction(scale=1.0, exponent=a, anchor=(0.3,), bound=1.0)
        for h in (0.02, 0.05, 0.1):
            kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=h)
            bound = 2.0 * 1.0 * h**a
            for x in grid:
                b_n, err = smoothed_value(dens, kernel, f, [x])
                gap = abs(b_n - f.eval_one([x]))
                worst_err = max(worst_err, err)
                worst_ratio = max(worst_ratio, gap / bound)
                assert err < 1e-6, f"quadrature error {err} at x={x}, h={h}, a={a}"
                assert gap <= bound + err, f"bias {gap} > {bound} at x={x}, h={h}, a={a}"
    _report("criterion-06 uniform bias bound", True,
            f"606 (a, h, x) checks, worst gap/bound {worst_ratio:.3f}, "
            f"worst quadrature error {worst_err:.2e} (< 1e-6)")


# ---------------------------------------------------------------------------
# 7. coincidence with the kernel-weighted average
# ---------------------------------------------------------------------------


def test_criterion_07_estimator_coincidence():
    gen = np.random.default_rng(20260808)
    checked = 0
    for trial in range(1000):
        d = int(gen.integers(1, 3))
        if d == 1:
            dens = UniformCube(lo=(0.0,), hi=(1.0,))
        else:
            dens = UniformBall(center=(0.0, 0.0), radius=1.0)
        n = int(gen.integers(1, 41))
        h = float(gen.uniform(0.02, 0.6))
        kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=h)
        f = SinusoidFunction(amplitude=float(gen.uniform(0.2, 2.0)),
                             frequency=float(gen.uniform(0.5, 3.0)))
        noise = BoundedUniformNoise(sigma_b=float(gen.uniform(0.0, 1.0)))
        x = dens.sample(np.random.default_rng(trial), ())
        nb = sample_neighborhood(dens, kernel, f, noise, n, x, trial % 7, 51_000 + trial)
        a = gnw_predict(nb)
        b = nw_predict(nb.x, nb.points, nb.labels, kernel)
        assert a.value == b.value and a.mass == b.mass and a.empty == b.empty, \
            f"trial {trial}: {a} != {b}"
        checked += 1
    _report("criterion-07 estimator coincidence", checked == 1000,
            f"{checked}/1000 random scenarios bit-identical")


# ---------------------------------------------------------------------------
# 8. proxy gap identity
# ---------------------------------------------------------------------------


def test_criterion_08_proxy_gap():
    cfg = unit_interval_scenario(n=10, h=0.1, master_seed=47_001)
    batch = run_replications(cfg, X, 100_000, threads=2)
    rep = estimate_moments(batch, 1.0)
    theory = proxy_gap(1.0, 0.2, 10)
    assert theory == pytest.approx(0.0115292, abs=5e-8)
    emp_gap = rep.variance_proxy - rep.standard_variance
    se_gap = 2.0 * abs(rep.mean - 1.0) * rep.se_mean
    z1 = abs(emp_gap - theory) / se_gap
    z2 = abs((rep.mean - 1.0) ** 2 - theory) / se_gap
    _report("criterion-08 proxy gap", z1 <= 5.0 and z2 <= 5.0,
            f"gap {emp_gap:.6f} vs {theory:.6f} ({z1:.2f} SE, mean-route {z2:.2f} SE)")


# ---------------------------------------------------------------------------
# 9. risk bounds dominate
# ---------------------------------------------------------------------------


def test_criterion_09_risk_bounds():
    R = 20_000
    checked = 0
    cell = 0
    for fname, f, L in (("const1", ConstantFunction(1.0), 0.0), ("identity", IDENTITY, 1.0)):
        for n in N_GRID:
            for h in H_GRID:
                for s2, noise in ((0.0, None), (1.0, GaussianNoise(stddev=1.0))):
                    cell += 1
                    cfg = unit_interval_scenario(
                        n=n, h=h, regression=f, noise=noise, master_seed=49_000 + cell,
                    )
                    bound = pointwise_risk_bound(
                        L=L, a=1.0, M2=1.0, B=1.0, sigma_sq=s2, c0=0.5, d=1,
                        M1=1.0, n=n, alpha=1.0, h=h, p0=1.0,
                    )
                    rep = estimate_pointwise_risk(cfg, X, R, threads=2)
                    assert rep.mse <= bound + 3.0 * rep.se_mse, \
                        f"{fname} n={n} h={h} s2={s2}: mse {rep.mse} > {bound}"
                    checked += 1
    # one integrated cell
    cfg = unit_interval_scenario(n=50, h=0.1, regression=IDENTITY,
                                 noise=GaussianNoise(stddev=1.0),
                                 integrated=(100, 50), master_seed=49_900)
    mise = estimate_integrated_risk(cfg, threads=2)
    bound = pointwise_risk_bound(L=1.0, a=1.0, M2=1.0, B=1.0, sigma_sq=1.0, c0=0.5,
                                 d=1, M1=1.0, n=50, alpha=1.0, h=0.1, p0=1.0)
    assert mise.mse <= bound + 3.0 * mise.se_mse
    checked += 1
    _report("criterion-09 risk bounds dominate", True,
            f"{checked} cells (pointwise grid + integrated) under their bounds")


# ---------------------------------------------------------------------------
# 10. bandwidth tradeoff is U-shaped
# ---------------------------------------------------------------------------


def test_criterion_10_tradeoff_u_shape():
    start = time.time()
    hs = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6)
    base = unit_interval_scenario(
        n=1000, h=0.1,
        regression=SinusoidFunction(amplitude=1.0, frequency=1.0),
        noise=GaussianNoise(stddev=1.0),
        integrated=(192, 64),
        master_seed=50_001,
    )
    mise = {}
    se = {}
    for h in hs:
        cfg = replace(base, kernel=replace(base.kernel, h=h))
        rep = estimate_integrated_risk(cfg, threads=2)
        mise[h], se[h] = rep.mse, rep.se_mse
    h_star = min(hs, key=lambda h: mise[h])
    z = 2.5758293035489004
    left_gap = mise[0.005] - mise[h_star]
    right_gap = mise[0.6] - mise[h_star]
    left_ci = z * math.hypot(se[0.005], se[h_star])
    right_ci = z * math.hypot(se[0.6], se[h_star])
    elapsed = time.time() - start
    ok = (h_star not in (0.005, 0.6) and left_gap > left_ci and right_gap > right_ci
          and elapsed < 180.0)
    _report("criterion-10 bandwidth tradeoff", ok,
            f"minimizer h*={h_star}, MISE(0.005)={mise[0.005]:.4f}, "
            f"MISE(h*)={mise[h_star]:.4f}, MISE(0.6)={mise[0.6]:.4f}; "
            f"gaps {left_gap:.4f}/{right_gap:.4f} > CIs {left_ci:.4f}/{right_ci:.4f}, "
            f"{elapsed:.1f}s (< 180s)")


# ---------------------------------------------------------------------------
# 11. asymptotic degree-ratio bracket
# ---------------------------------------------------------------------------


def test_criterion_11_degree_ratio_bracket():
    cases = [
        ("uniform-d1", UniformCube(lo=(0.0,), hi=(1.0,)), [0.5]),
        ("uniform-d2", UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0)), [0.5, 0.5]),
        ("gaussian-d1", GaussianDensity(mean=(0.0,), stddev=1.0), [0.0]),
        ("gaussian-d2", GaussianDensity(mean=(0.0, 0.0), stddev=1.0), [0.0, 0.0]),
    ]
    details = []
    for name, dens, x in cases:
        kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=1.0)
        ratios = degree_ratio_check(dens, kernel, x, (0.01, 0.003, 0.001))
        final = ratios[-1][1]
        lo, hi = lebesgue_ratio_bracket(dens, kernel, x)
        assert lo * 0.95 <= final <= hi * 1.05, f"{name}: {final} outside [{lo}, {hi}]"
        details.append(f"{name}={final:.4f} in [{lo:.4f}, {hi:.4f}]")
    _report("criterion-11 degree-ratio bracket", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 12. byte-identical output across worker counts
# ---------------------------------------------------------------------------


def test_criterion_12_thread_determinism(tmp_path):
    suite_configs = [
        ("expectation", "expectation.json"),
        ("variance", "variance.json"),
        ("concentration", "concentration.json"),
        ("bias", "bias.json"),
        ("risk", "risk_pointwise.json"),
        ("risk", "risk_integrated.json"),
        ("decoupling", "expectation.json"),
        ("degree_ratio", "degree_ratio.json"),
    ]
    compared = 0
    for suite, config in suite_configs:
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"{suite}_{config}_{threads}.csv"
            code = cli_main([
                "verify", "--config", os.path.join(CONFIG_DIR, config),
                "--suite", suite, "--threads", str(threads),
                "--replications", "4000", "--out", str(out),
            ])
            assert code == 0, f"{suite} on {config} failed"
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{suite} differs across thread counts"
        compared += 1
    sweep_outs = []
    for threads in (1, 2):
        out = tmp_path / f"sweep_{threads}.csv"
        code = cli_main([
            "sweep", "--config", os.path.join(CONFIG_DIR, "sweep.json"),
            "--parameter", "h", "--values", "0.05,0.2", "--threads", str(threads),
            "--out", str(out),
        ])
        assert code == 0
        sweep_outs.append(out.read_bytes())
    assert sweep_outs[0] == sweep_outs[1]
    compared += 1
    _report("criterion-12 thread determinism", True,
            f"{compared} command pipelines byte-identical at --threads 1 vs 2")

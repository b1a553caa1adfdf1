"""Configuration-driven experiment runner.

Commands
--------
verify    run one named verification suite; exit 0 iff every row passes
sweep     bandwidth / sparsity / sample-size sweep with risk bounds
figure    emit an SVG figure (graph scatter or estimator-vs-truth overlay)
selftest  exhaustive ratio-weight identity check, n = 1..12

Every command is deterministic given config + seed: rerunning writes
byte-identical CSV, regardless of the worker-thread count.  Exit codes:
0 pass, 1 verification failure, 2 usage/config error, 3 numeric error.
"""

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import theory
from .errors import ConfigError, InvalidInputError, QuadratureError, ResourceBudgetError
from .figures import rgg_svg, tradeoff_svg
from .graph import decoupling_selftest, sample_full_graph
from .montecarlo import (
    estimate_integrated_risk,
    estimate_moments,
    estimate_pointwise_risk,
    estimate_tail,
    run_replications,
)
from .scenario import ScenarioConfig, _float, parse_config
from .stats import Z99

__all__ = ["VerificationRow", "cmd_verify", "cmd_sweep", "cmd_figure", "cmd_selftest",
           "rows_to_csv", "main", "console_main"]

SUITES = ("expectation", "variance", "concentration", "bias", "risk", "decoupling",
          "degree_ratio")

VERIFY_HEADER = "check_name,theory_value,empirical_value,slack,verdict"
SWEEP_HEADER = ("param,value,mise,mise_ci,pointwise_bound,integrated_bound,"
                "bias_bound,variance_bound,d_n_min")

DEGREE_RATIO_H = (0.064, 0.016, 0.004, 0.001)
DEGREE_RATIO_TOL = 0.05


@dataclass(frozen=True)
class VerificationRow:
    check_name: str
    theory_value: float
    empirical_value: float
    slack: float
    verdict: bool

    def to_csv(self) -> str:
        verdict = "pass" if self.verdict else "fail"
        return (f"{self.check_name},{repr(float(self.theory_value))},"
                f"{repr(float(self.empirical_value))},{repr(float(self.slack))},{verdict}")


def rows_to_csv(rows, header: str) -> str:
    lines = [header]
    lines.extend(r if isinstance(r, str) else r.to_csv() for r in rows)
    return "\n".join(lines) + "\n"


def _point_tag(x) -> str:
    return "(" + ";".join(repr(float(v)) for v in np.atleast_1d(x)) + ")"


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_expectation(config, R, threads):
    rows = []
    for x in config.query_points:
        m = theory.window_moments(config.density, config.kernel, config.regression, x)
        t = m.expectation(config.n)
        batch = run_replications(config, x, R, threads=threads)
        rep = estimate_moments(batch, m.b_n, seed=config.master_seed)
        # rule-of-three floor: events below Monte Carlo resolution can leave
        # the sample SE at exactly 0 while the formula still carries them
        slack = 5.0 * rep.se_mean + 3.0 / R
        rows.append(VerificationRow(
            f"expectation@{_point_tag(x)}", t, rep.mean, slack, abs(rep.mean - t) <= slack,
        ))
    return rows


def _suite_variance(config, R, threads):
    rows = []
    B = config.regression.bound
    sigma_sq = config.noise.variance
    for x in config.query_points:
        m = theory.window_moments(config.density, config.kernel, config.regression, x)
        d_n = config.n * m.c_n
        if d_n <= 0:
            rows.append(VerificationRow(f"variance_upper@{_point_tag(x)}", 0.0, 0.0, 0.0, False))
            continue
        batch = run_replications(config, x, R, threads=threads)
        rep = estimate_moments(batch, m.b_n, seed=config.master_seed)
        upper = theory.variance_upper_bound(B, sigma_sq, d_n)
        lower = theory.variance_lower_bound(sigma_sq, d_n)
        slack = 3.0 * rep.se_variance_proxy
        rows.append(VerificationRow(
            f"variance_upper@{_point_tag(x)}", upper, rep.variance_proxy, slack,
            rep.variance_proxy <= upper + slack,
        ))
        rows.append(VerificationRow(
            f"variance_lower@{_point_tag(x)}", lower, rep.variance_proxy, slack,
            rep.variance_proxy >= lower - slack,
        ))
    return rows


def _suite_concentration(config, R, threads):
    sigma = config.noise.bound
    _require(sigma is not None,
             "the concentration suite needs almost-surely bounded noise")
    B = config.regression.bound
    _require(B > 0, "the concentration suite needs a positive sup bound B")
    rows = []
    for x in config.query_points:
        m = theory.window_moments(config.density, config.kernel, config.regression, x)
        d_n = config.n * m.c_n
        batch = run_replications(config, x, R, threads=threads)
        tails = estimate_tail(batch, m.b_n, config.deltas)
        for t in tails:
            bound, _rate = theory.concentration_envelope(t.delta, B, sigma, d_n)
            slack = 3.0 * t.se
            rows.append(VerificationRow(
                f"concentration@{_point_tag(x)}/delta={repr(t.delta)}",
                bound, t.frequency, slack, t.frequency <= bound + slack,
            ))
    return rows


def _suite_bias(config, R, threads):
    holder = config.regression.holder
    _require(holder is not None, "the bias suite needs a declared Hoelder class")
    a, L = holder
    bound = theory.bias_uniform_bound(L, a, config.kernel.m2, config.kernel.h) if L > 0 else 0.0
    rows = []
    for x in config.query_points:
        m = theory.window_moments(config.density, config.kernel, config.regression, x)
        gap = abs(m.b_n - config.regression.eval_one(x))
        rows.append(VerificationRow(
            f"bias@{_point_tag(x)}", bound, gap, m.b_err, gap <= bound + m.b_err,
        ))
    return rows


def _risk_constants(config):
    cst = config.constants
    _require(cst.r0 is not None and cst.c0 is not None and cst.p0 is not None,
             "the risk suite needs declared constants r0, c0, p0")
    holder = config.regression.holder
    _require(holder is not None, "the risk suite needs a declared Hoelder class")
    a, L = holder
    _require(config.kernel.m1 * config.kernel.h < cst.r0,
             f"risk bounds need M1*h < r0; got {config.kernel.m1 * config.kernel.h} >= {cst.r0}")
    return cst, a, L


def _suite_risk(config, R, threads):
    cst, a, L = _risk_constants(config)
    k = config.kernel
    bound = theory.pointwise_risk_bound(
        L=L, a=a, M2=k.m2, B=config.regression.bound, sigma_sq=config.noise.variance,
        c0=cst.c0, d=config.dimension, M1=k.m1, n=config.n, alpha=k.alpha, h=k.h, p0=cst.p0,
    )
    rows = []
    if config.query.integrated:
        rep = estimate_integrated_risk(config, config.query.outer, config.query.inner,
                                       threads=threads)
        slack = 3.0 * (rep.se_mse or 0.0)
        rows.append(VerificationRow(
            "integrated_risk", bound, rep.mse, slack, rep.mse <= bound + slack,
        ))
    else:
        for x in config.query_points:
            rep = estimate_pointwise_risk(config, x, R, threads=threads)
            slack = 3.0 * (rep.se_mse or 0.0)
            rows.append(VerificationRow(
                f"pointwise_risk@{_point_tag(x)}", bound, rep.mse, slack,
                rep.mse <= bound + slack,
            ))
    return rows


def _suite_decoupling(config, R, threads):
    """Exhaustive ratio-weight identity rows for n = 1..12; needs no scenario."""
    rows = []
    for n in range(1, 13):
        report = decoupling_selftest(n)
        rows.append(VerificationRow(
            f"decoupling@n={n}", 0.0, 0.0 if report.passed else 1.0,
            0.0, report.passed,
        ))
    return rows


def _suite_degree_ratio(config, R, threads):
    rows = []
    for x in config.query_points:
        ratios = theory.degree_ratio_check(config.density, config.kernel, x, DEGREE_RATIO_H)
        final = ratios[-1][1]
        lo, hi = theory.lebesgue_ratio_bracket(config.density, config.kernel, x)
        rows.append(VerificationRow(
            f"degree_ratio_lower@{_point_tag(x)}", lo * (1.0 - DEGREE_RATIO_TOL), final,
            DEGREE_RATIO_TOL * lo, final >= lo * (1.0 - DEGREE_RATIO_TOL),
        ))
        rows.append(VerificationRow(
            f"degree_ratio_upper@{_point_tag(x)}", hi * (1.0 + DEGREE_RATIO_TOL), final,
            DEGREE_RATIO_TOL * hi, final <= hi * (1.0 + DEGREE_RATIO_TOL),
        ))
    return rows


_SUITE_FUNCS = {
    "expectation": _suite_expectation,
    "variance": _suite_variance,
    "concentration": _suite_concentration,
    "bias": _suite_bias,
    "risk": _suite_risk,
    "decoupling": _suite_decoupling,
    "degree_ratio": _suite_degree_ratio,
}


def cmd_verify(config: ScenarioConfig, suite: str, threads: int = 1,
               replications: int | None = None):
    """Run one verification suite; returns (rows, exit_code)."""
    if suite not in _SUITE_FUNCS:
        raise ConfigError(f"unknown suite {suite!r}; valid: {', '.join(SUITES)}")
    R = replications if replications is not None else config.replications
    return _with_exit_code(_SUITE_FUNCS[suite](config, R, threads))


def _with_exit_code(rows):
    return rows, 0 if all(r.verdict for r in rows) else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _with_parameter(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    if parameter == "h":
        return replace(config, kernel=replace(config.kernel, h=float(value)))
    if parameter == "alpha":
        return replace(config, kernel=replace(config.kernel, alpha=float(value)))
    if parameter == "n":
        if not float(value).is_integer():
            raise ConfigError(f"sweep values for n must be integers, got {value!r}")
        return replace(config, n=int(value))
    raise ConfigError(f"unknown sweep parameter {parameter!r}; valid: h, alpha, n")


def _sweep_value(value) -> float:
    """A sweep value under the config's finite-number rule."""
    try:
        value = float(value)
    except ValueError:
        pass  # _float refuses the text itself
    return _float(value, "sweep values")


def cmd_sweep(config: ScenarioConfig, parameter: str, values, threads: int = 1):
    """MISE and closed-form bounds along a parameter grid; returns CSV rows."""
    values = [_sweep_value(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    if any(v <= 0 for v in values) or values != sorted(values):
        raise ConfigError("sweep values must be positive and sorted")
    _require(config.query.integrated,
             "sweeps need an integrated query (an outer/inner replication split)")

    cst = config.constants
    holder = config.regression.holder
    lines = []
    for v in values:
        cfg = _with_parameter(config, parameter, v)
        k = cfg.kernel
        rep = estimate_integrated_risk(cfg, cfg.query.outer, cfg.query.inner, threads=threads)

        d_n_min = float("nan")
        variance_bound = float("nan")
        bias_bound = float("nan")
        pw = integrated = float("nan")
        if cst.r0 is not None and cst.c0 is not None and cst.p0 is not None \
                and k.m1 * k.h < cst.r0:
            d_n_min = theory.degree_lower_bound(
                cst.c0, cfg.dimension, k.m1, cfg.n, k.alpha, k.h, cst.p0,
            )
            variance_bound = theory.variance_upper_bound(
                cfg.regression.bound, cfg.noise.variance, d_n_min,
            )
            if holder is not None:
                a, L = holder
                bias_bound = theory.bias_uniform_bound(L, a, k.m2, k.h) if L > 0 else 0.0
                bounds = theory.uniform_density_risk_bound(
                    L=L, a=a, M2=k.m2, B=cfg.regression.bound,
                    sigma_sq=cfg.noise.variance, c0=cst.c0, d=cfg.dimension,
                    M1=k.m1, n=cfg.n, alpha=k.alpha, h=k.h, p0=cst.p0, r0=cst.r0,
                )
                pw, integrated = bounds.pointwise_bound, bounds.integrated_bound
        fields = [parameter, repr(float(v)), repr(rep.mse), repr(Z99 * (rep.se_mse or 0.0)),
                  repr(pw), repr(integrated), repr(bias_bound), repr(variance_bound),
                  repr(d_n_min)]
        lines.append(",".join(fields))
    return lines


# ---------------------------------------------------------------------------
# figures / selftest
# ---------------------------------------------------------------------------


def cmd_figure(config: ScenarioConfig, kind: str) -> str:
    if kind == "rgg":
        graph = sample_full_graph(config.density, config.kernel, config.n, config.master_seed)
        return rgg_svg(graph)
    if kind == "tradeoff":
        return tradeoff_svg(config)
    raise ConfigError(f"unknown figure kind {kind!r}; valid: rgg, tradeoff")


def cmd_selftest():
    """The decoupling suite without a scenario; returns (rows, exit_code)."""
    return _with_exit_code(_suite_decoupling(config=None, R=None, threads=1))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _write_output(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gnwlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="scenario config JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--replications", type=int, default=None,
                       help="override the replication count")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITES)

    p_sweep = sub.add_parser("sweep", help="parameter sweep with bounds")
    common(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=("h", "alpha", "n"))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated positive values, sorted ascending")

    p_fig = sub.add_parser("figure", help="emit an SVG figure")
    common(p_fig)
    p_fig.add_argument("--kind", required=True, choices=("rgg", "tradeoff"))

    p_self = sub.add_parser("selftest", help="exhaustive identity self-test")
    common(p_self, config_required=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.replications is not None and args.replications < 1:
            raise ConfigError(f"--replications must be >= 1, got {args.replications}")
        config = None
        if args.config is not None:
            config = parse_config(args.config)
            if args.seed is not None:
                config = replace(config, master_seed=int(args.seed))

        if args.command == "selftest":
            rows, code = cmd_selftest()
            _write_output(rows_to_csv(rows, VERIFY_HEADER), args.out)
            return code

        if config is None:
            raise ConfigError("this command requires --config")

        if args.command == "verify":
            rows, code = cmd_verify(config, args.suite, threads=args.threads,
                                    replications=args.replications)
            _write_output(rows_to_csv(rows, VERIFY_HEADER), args.out)
            return code
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v]
            lines = cmd_sweep(config, args.parameter, values, threads=args.threads)
            _write_output(rows_to_csv(lines, SWEEP_HEADER), args.out)
            return 0
        if args.command == "figure":
            svg = cmd_figure(config, args.kind)
            _write_output(svg, args.out)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidInputError, ResourceBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except QuadratureError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3


def console_main():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()

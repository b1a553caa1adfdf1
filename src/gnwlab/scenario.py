"""Scenario configuration: construction, validation, JSON round-trip.

A scenario bundles everything an experiment needs: dimension, sample size,
density, kernel, regression function, noise model, declared support/density
constants, the query specification (fixed points or density-integrated), the
replication budget and the master seed.  Configs are immutable, validate on
construction, and serialize to a canonical JSON form that round-trips
losslessly.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    BoundedUniformNoise,
    ConstantFunction,
    CuspFunction,
    Density,
    GaussianDensity,
    GaussianNoise,
    KernelSpec,
    LinearFunction,
    MixtureDensity,
    NoNoise,
    Noise,
    RademacherNoise,
    Regression,
    SinusoidFunction,
    UniformBall,
    UniformCube,
    kernel_by_name,
)

__all__ = [
    "ScenarioConstants",
    "QuerySpec",
    "ScenarioConfig",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "serialize_config",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConstants:
    """Declared support/density constants the closed-form bounds consume.

    r0/c0: measure-retention radius and fraction of the support; p0: density
    lower bound on the support; beta: density Hoelder exponent (when the
    Hoelder-density risk bound applies).  They parametrize assumptions and
    are declared, not inferred.
    """

    r0: float | None = None
    c0: float | None = None
    p0: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class QuerySpec:
    """Either fixed query points or density-integrated evaluation."""

    points: tuple[tuple[float, ...], ...] | None = None
    outer: int | None = None
    inner: int | None = None

    def __post_init__(self):
        fixed = self.points is not None
        integrated = self.outer is not None or self.inner is not None
        if fixed == integrated:
            raise ConfigError("query must give either fixed points or integrated settings")
        if integrated and (self.outer is None or self.inner is None):
            raise ConfigError("integrated query needs both outer and inner counts")

    @property
    def integrated(self) -> bool:
        return self.points is None


@dataclass(frozen=True)
class ScenarioConfig:
    dimension: int
    n: int
    density: Density
    kernel: KernelSpec
    regression: Regression
    noise: Noise
    constants: ScenarioConstants
    query: QuerySpec
    replications: int
    master_seed: int
    deltas: tuple[float, ...] = (0.25, 0.5, 1.0)

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.density.dim != self.dimension:
            raise ConfigError(
                f"density dimension {self.density.dim} != scenario dimension {self.dimension}"
            )
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if any(d <= 0 for d in self.deltas) or list(self.deltas) != sorted(self.deltas):
            raise ConfigError("deltas must be positive and sorted")
        if not self.query.integrated:
            for pt in self.query.points:
                if len(pt) != self.dimension:
                    raise ConfigError(f"query point {pt} has wrong dimension")
                if not bool(self.density.support_contains(np.asarray(pt)[None, :])[0]):
                    raise ConfigError(f"query point {pt} lies outside the support")

    @property
    def query_points(self) -> list[np.ndarray]:
        if self.query.integrated:
            raise ConfigError("scenario uses an integrated query, not fixed points")
        return [np.asarray(p, dtype=float) for p in self.query.points]


# ---------------------------------------------------------------------------
# dict <-> objects
# ---------------------------------------------------------------------------


def _require_keys(d: dict, valid: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - valid
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; valid keys: {sorted(valid)}"
        )
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")


def _convert(kind, value, where: str):
    """kind(value), with a value that does not convert reported as a ConfigError."""
    try:
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _point_list(raw) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in p) for p in raw)


def _float_list(raw) -> tuple[float, ...]:
    return tuple(float(v) for v in raw)


def _density_from_dict(d: dict, where: str = "density") -> Density:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "uniform_cube":
            _require_keys(d, {"kind", "lo", "hi"}, {"lo", "hi"}, where)
            return UniformCube(lo=tuple(d["lo"]), hi=tuple(d["hi"]))
        if kind == "uniform_ball":
            _require_keys(d, {"kind", "center", "radius"}, {"center", "radius"}, where)
            return UniformBall(center=tuple(d["center"]), radius=float(d["radius"]))
        if kind == "gaussian":
            _require_keys(d, {"kind", "mean", "stddev"}, {"mean", "stddev"}, where)
            return GaussianDensity(mean=tuple(d["mean"]), stddev=float(d["stddev"]))
        if kind == "mixture":
            _require_keys(d, {"kind", "components"}, {"components"}, where)
            comps = tuple(
                (float(c["weight"]), _density_from_dict(c["density"], f"{where}.components[{i}]"))
                for i, c in enumerate(d["components"])
            )
            return MixtureDensity(components=comps)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind {kind!r}; valid: uniform_cube, uniform_ball, gaussian, mixture")


def _density_to_dict(dens: Density) -> dict:
    if isinstance(dens, UniformCube):
        return {"kind": "uniform_cube", "lo": list(dens.lo), "hi": list(dens.hi)}
    if isinstance(dens, UniformBall):
        return {"kind": "uniform_ball", "center": list(dens.center), "radius": dens.radius}
    if isinstance(dens, GaussianDensity):
        return {"kind": "gaussian", "mean": list(dens.mean), "stddev": dens.stddev}
    if isinstance(dens, MixtureDensity):
        return {
            "kind": "mixture",
            "components": [
                {"weight": w, "density": _density_to_dict(c)} for w, c in dens.components
            ],
        }
    raise ConfigError(f"unserializable density {type(dens).__name__}")


def _kernel_from_dict(d: dict) -> KernelSpec:
    _require_keys(d, {"base", "alpha", "h", "m1", "m2"}, {"base", "alpha", "h"}, "kernel")
    try:
        return KernelSpec(
            base=kernel_by_name(d["base"]),
            alpha=float(d["alpha"]),
            h=float(d["h"]),
            m1=float(d["m1"]) if "m1" in d else None,
            m2=float(d["m2"]) if "m2" in d else None,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc


def _kernel_to_dict(k: KernelSpec) -> dict:
    return {"base": k.base.name, "alpha": k.alpha, "h": k.h, "m1": k.m1, "m2": k.m2}


def _holder_from_dict(d: dict, where: str):
    if d is None:
        return None
    _require_keys(d, {"a", "L"}, {"a", "L"}, f"{where}.holder")
    a, L = float(d["a"]), float(d["L"])
    if not (0.0 < a <= 1.0) or L < 0:
        raise ConfigError(f"{where}.holder: need a in (0, 1] and L >= 0")
    return (a, L)


def _regression_from_dict(d: dict) -> Regression:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("regression: expected an object with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "constant":
            _require_keys(d, {"kind", "value", "bound", "holder"}, {"value"}, "regression")
            kw = {"value": float(d["value"])}
            if "bound" in d:
                kw["bound"] = float(d["bound"])
            if "holder" in d:
                kw["holder"] = _holder_from_dict(d["holder"], "regression")
            return ConstantFunction(**kw)
        if kind == "linear":
            _require_keys(
                d, {"kind", "slope", "intercept", "bound", "holder"},
                {"slope", "intercept", "bound"}, "regression",
            )
            kw = {
                "slope": tuple(d["slope"]),
                "intercept": float(d["intercept"]),
                "bound": float(d["bound"]),
            }
            if "holder" in d:
                kw["holder"] = _holder_from_dict(d["holder"], "regression")
            return LinearFunction(**kw)
        if kind == "sinusoid":
            _require_keys(
                d, {"kind", "amplitude", "frequency", "phase", "bound", "holder"},
                {"amplitude", "frequency"}, "regression",
            )
            kw = {"amplitude": float(d["amplitude"]), "frequency": float(d["frequency"])}
            if "phase" in d:
                kw["phase"] = float(d["phase"])
            if "bound" in d:
                kw["bound"] = float(d["bound"])
            if "holder" in d:
                kw["holder"] = _holder_from_dict(d["holder"], "regression")
            return SinusoidFunction(**kw)
        if kind == "cusp":
            _require_keys(
                d, {"kind", "scale", "exponent", "anchor", "bound", "holder"},
                {"scale", "exponent", "anchor", "bound"}, "regression",
            )
            kw = {
                "scale": float(d["scale"]),
                "exponent": float(d["exponent"]),
                "anchor": tuple(d["anchor"]),
                "bound": float(d["bound"]),
            }
            if "holder" in d:
                kw["holder"] = _holder_from_dict(d["holder"], "regression")
            return CuspFunction(**kw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"regression: {exc}") from exc
    raise ConfigError(f"regression: unknown kind {kind!r}; valid: constant, linear, sinusoid, cusp")


def _regression_to_dict(f: Regression) -> dict:
    holder = list(f.holder) if f.holder is not None else None
    if isinstance(f, ConstantFunction):
        d = {"kind": "constant", "value": f.value, "bound": f.bound}
    elif isinstance(f, LinearFunction):
        d = {"kind": "linear", "slope": list(f.slope), "intercept": f.intercept, "bound": f.bound}
    elif isinstance(f, SinusoidFunction):
        d = {
            "kind": "sinusoid", "amplitude": f.amplitude, "frequency": f.frequency,
            "phase": f.phase, "bound": f.bound,
        }
    elif isinstance(f, CuspFunction):
        d = {
            "kind": "cusp", "scale": f.scale, "exponent": f.exponent,
            "anchor": list(f.anchor), "bound": f.bound,
        }
    else:
        raise ConfigError(f"unserializable regression {type(f).__name__}")
    if holder is not None:
        d["holder"] = {"a": holder[0], "L": holder[1]}
    return d


def _noise_from_dict(d: dict) -> Noise:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("noise: expected an object with a 'kind' key")
    kind = d["kind"]
    try:
        if kind == "none":
            _require_keys(d, {"kind"}, set(), "noise")
            return NoNoise()
        if kind == "bounded_uniform":
            _require_keys(d, {"kind", "sigma_b"}, {"sigma_b"}, "noise")
            return BoundedUniformNoise(sigma_b=float(d["sigma_b"]))
        if kind == "rademacher":
            _require_keys(d, {"kind", "sigma_b"}, {"sigma_b"}, "noise")
            return RademacherNoise(sigma_b=float(d["sigma_b"]))
        if kind == "gaussian":
            _require_keys(d, {"kind", "stddev"}, {"stddev"}, "noise")
            return GaussianNoise(stddev=float(d["stddev"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"noise: {exc}") from exc
    raise ConfigError(f"noise: unknown kind {kind!r}; valid: none, bounded_uniform, rademacher, gaussian")


def _noise_to_dict(noise: Noise) -> dict:
    if isinstance(noise, NoNoise):
        return {"kind": "none"}
    if isinstance(noise, BoundedUniformNoise):
        return {"kind": "bounded_uniform", "sigma_b": noise.sigma_b}
    if isinstance(noise, RademacherNoise):
        return {"kind": "rademacher", "sigma_b": noise.sigma_b}
    if isinstance(noise, GaussianNoise):
        return {"kind": "gaussian", "stddev": noise.stddev}
    raise ConfigError(f"unserializable noise {type(noise).__name__}")


_TOP_KEYS = {
    "schema_version", "dimension", "n", "density", "kernel", "regression",
    "noise", "constants", "query", "replications", "master_seed", "deltas",
}
_TOP_REQUIRED = {
    "schema_version", "dimension", "n", "density", "kernel", "regression",
    "noise", "query", "replications", "master_seed",
}


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, _TOP_KEYS, _TOP_REQUIRED, "config")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']!r}; expected {SCHEMA_VERSION}"
        )

    const_raw = raw.get("constants", {}) or {}
    _require_keys(const_raw, {"r0", "c0", "p0", "beta"}, set(), "constants")
    constants = ScenarioConstants(**{
        key: _convert(float, const_raw[key], f"constants.{key}")
        for key in ("r0", "c0", "p0", "beta")
        if const_raw.get(key) is not None
    })

    q_raw = raw["query"]
    if not isinstance(q_raw, dict):
        raise ConfigError("query must be an object")
    _require_keys(q_raw, {"points", "integrated"}, set(), "query")
    if "points" in q_raw:
        query = QuerySpec(points=_convert(_point_list, q_raw["points"], "query.points"))
    elif "integrated" in q_raw:
        ig = q_raw["integrated"]
        _require_keys(ig, {"outer", "inner"}, {"outer", "inner"}, "query.integrated")
        query = QuerySpec(
            outer=_convert(int, ig["outer"], "query.integrated.outer"),
            inner=_convert(int, ig["inner"], "query.integrated.inner"),
        )
    else:
        raise ConfigError("query must contain 'points' or 'integrated'")

    kwargs = dict(
        dimension=_convert(int, raw["dimension"], "dimension"),
        n=_convert(int, raw["n"], "n"),
        density=_density_from_dict(raw["density"]),
        kernel=_kernel_from_dict(raw["kernel"]),
        regression=_regression_from_dict(raw["regression"]),
        noise=_noise_from_dict(raw["noise"]),
        constants=constants,
        query=query,
        replications=_convert(int, raw["replications"], "replications"),
        master_seed=_convert(int, raw["master_seed"], "master_seed"),
    )
    if "deltas" in raw:
        kwargs["deltas"] = _convert(_float_list, raw["deltas"], "deltas")
    return ScenarioConfig(**kwargs)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    if cfg.query.integrated:
        query = {"integrated": {"outer": cfg.query.outer, "inner": cfg.query.inner}}
    else:
        query = {"points": [list(p) for p in cfg.query.points]}
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": cfg.dimension,
        "n": cfg.n,
        "density": _density_to_dict(cfg.density),
        "kernel": _kernel_to_dict(cfg.kernel),
        "regression": _regression_to_dict(cfg.regression),
        "noise": _noise_to_dict(cfg.noise),
        "constants": {
            "r0": cfg.constants.r0, "c0": cfg.constants.c0,
            "p0": cfg.constants.p0, "beta": cfg.constants.beta,
        },
        "query": query,
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "deltas": list(cfg.deltas),
    }


def serialize_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def parse_config(path) -> ScenarioConfig:
    """Load and validate a scenario config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)

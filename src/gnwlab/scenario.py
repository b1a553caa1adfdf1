"""Scenario configuration: construction, validation, JSON round-trip.

A scenario bundles everything an experiment needs: dimension, sample size,
density, kernel, regression function, noise model, declared support/density
constants, the query specification (fixed points or density-integrated), the
replication budget and the master seed.  Configs are immutable, validate on
construction, and serialize to a canonical JSON form that round-trips
losslessly.
"""

import json
import sys
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
        if fixed and not self.points:
            raise ConfigError("query needs at least one point")
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
        if not 0 <= self.master_seed < 2**64:  # the stream key keeps 64 bits of it
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
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


def _float(value, where: str) -> float:
    """A finite JSON number as a float; booleans, NaN, infinities and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON integer, or a float without a fractional part: accepts 10 and 10.0, not 10.9."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{where}: {value!r} is not an integer")
    return int(value)


def _list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list")
    return value


def _vector(value, where: str) -> tuple[float, ...]:
    return tuple(_float(v, where) for v in _list(value, where))


def _holder(value, where: str) -> tuple[float, float] | None:
    if value is None:
        return None
    _require_keys(value, {"a", "L"}, {"a", "L"}, where)
    a, L = _float(value["a"], f"{where}.a"), _float(value["L"], f"{where}.L")
    if not (0.0 < a <= 1.0) or L < 0:
        raise ConfigError(f"{where}: need a in (0, 1] and L >= 0")
    return (a, L)


def _components(value, where: str) -> tuple[tuple[float, Density], ...]:
    comps = []
    for i, comp in enumerate(_list(value, where)):
        at = f"{where}[{i}]"
        _require_keys(comp, {"weight", "density"}, {"weight", "density"}, at)
        comps.append((
            _float(comp["weight"], f"{at}.weight"),
            _from_dict("density", comp["density"], f"{at}.density"),
        ))
    return tuple(comps)


# section -> kind -> (class, required keys, optional keys).  An optional key
# left out of a config takes the class's default.
_KINDS = {
    "density": {
        "uniform_cube": (UniformCube, ("lo", "hi"), ()),
        "uniform_ball": (UniformBall, ("center", "radius"), ()),
        "gaussian": (GaussianDensity, ("mean", "stddev"), ()),
        "mixture": (MixtureDensity, ("components",), ()),
    },
    "regression": {
        "constant": (ConstantFunction, ("value",), ("bound", "holder")),
        "linear": (LinearFunction, ("slope", "intercept", "bound"), ("holder",)),
        "sinusoid": (SinusoidFunction, ("amplitude", "frequency"), ("phase", "bound", "holder")),
        "cusp": (CuspFunction, ("scale", "exponent", "anchor", "bound"), ("holder",)),
    },
    "noise": {
        "none": (NoNoise, (), ()),
        "bounded_uniform": (BoundedUniformNoise, ("sigma_b",), ()),
        "rademacher": (RademacherNoise, ("sigma_b",), ()),
        "gaussian": (GaussianNoise, ("stddev",), ()),
    },
}

# key -> (parse(value, where), dump(attribute)) for the keys that are not plain floats
_VECTOR = (_vector, list)
_CODECS = {
    "lo": _VECTOR, "hi": _VECTOR, "center": _VECTOR, "mean": _VECTOR,
    "slope": _VECTOR, "anchor": _VECTOR,
    "holder": (_holder, lambda h: None if h is None else {"a": h[0], "L": h[1]}),
    "components": (
        _components,
        lambda comps: [{"weight": w, "density": _to_dict("density", c)} for w, c in comps],
    ),
}
_FLOAT = (_float, lambda v: v)


def _from_dict(section: str, d, where: str):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kinds = _KINDS[section]
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}: unknown kind {kind!r}; valid: {', '.join(kinds)}")
    cls, required, optional = kinds[kind]
    _require_keys(d, {"kind", *required, *optional}, set(required), where)
    kwargs = {
        key: _CODECS.get(key, _FLOAT)[0](d[key], f"{where}.{key}")
        for key in (*required, *optional) if key in d
    }
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _to_dict(section: str, obj) -> dict:
    for kind, (cls, required, optional) in _KINDS[section].items():
        if isinstance(obj, cls):
            return {"kind": kind, **{
                key: _CODECS.get(key, _FLOAT)[1](getattr(obj, key))
                for key in (*required, *optional)
            }}
    raise ConfigError(f"unserializable {section} {type(obj).__name__}")


def _kernel_from_dict(d) -> KernelSpec:
    _require_keys(d, {"base", "alpha", "h", "m1", "m2"}, {"base", "alpha", "h"}, "kernel")
    floats = {
        key: _float(d[key], f"kernel.{key}") for key in ("alpha", "h", "m1", "m2") if key in d
    }
    try:
        return KernelSpec(base=kernel_by_name(d["base"]), **floats)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc


def _kernel_to_dict(k: KernelSpec) -> dict:
    return {"base": k.base.name, "alpha": k.alpha, "h": k.h, "m1": k.m1, "m2": k.m2}


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
    if _integer(raw["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {raw['schema_version']!r}; expected {SCHEMA_VERSION}"
        )

    const_raw = {} if raw.get("constants") is None else raw["constants"]
    _require_keys(const_raw, {"r0", "c0", "p0", "beta"}, set(), "constants")
    constants = ScenarioConstants(**{
        key: _float(const_raw[key], f"constants.{key}")
        for key in ("r0", "c0", "p0", "beta")
        if const_raw.get(key) is not None
    })

    q_raw = raw["query"]
    _require_keys(q_raw, {"points", "integrated"}, set(), "query")
    points = outer = inner = None
    if "points" in q_raw:
        points = tuple(_vector(p, "query.points") for p in _list(q_raw["points"], "query.points"))
    if "integrated" in q_raw:
        ig = q_raw["integrated"]
        _require_keys(ig, {"outer", "inner"}, {"outer", "inner"}, "query.integrated")
        outer = _integer(ig["outer"], "query.integrated.outer")
        inner = _integer(ig["inner"], "query.integrated.inner")
    query = QuerySpec(points=points, outer=outer, inner=inner)

    kwargs = dict(
        dimension=_integer(raw["dimension"], "dimension"),
        n=_integer(raw["n"], "n"),
        density=_from_dict("density", raw["density"], "density"),
        kernel=_kernel_from_dict(raw["kernel"]),
        regression=_from_dict("regression", raw["regression"], "regression"),
        noise=_from_dict("noise", raw["noise"], "noise"),
        constants=constants,
        query=query,
        replications=_integer(raw["replications"], "replications"),
        master_seed=_integer(raw["master_seed"], "master_seed"),
    )
    if "deltas" in raw:
        kwargs["deltas"] = _vector(raw["deltas"], "deltas")
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
        "density": _to_dict("density", cfg.density),
        "kernel": _kernel_to_dict(cfg.kernel),
        "regression": _to_dict("regression", cfg.regression),
        "noise": _to_dict("noise", cfg.noise),
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

import copy
import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_interval_scenario
from gnwlab.errors import ConfigError
from gnwlab.model import _KERNELS_BY_NAME
from gnwlab.scenario import (
    _KINDS,
    QuerySpec,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
    serialize_config,
)

MINIMAL = {
    "schema_version": 1,
    "dimension": 1,
    "n": 10,
    "density": {"kind": "uniform_cube", "lo": [0.0], "hi": [1.0]},
    "kernel": {"base": "indicator", "alpha": 1.0, "h": 0.1},
    "regression": {"kind": "constant", "value": 1.0},
    "noise": {"kind": "none"},
    "query": {"points": [[0.5]]},
    "replications": 1000,
    "master_seed": 7,
}


def _write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_minimal_config_parses(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.n == 10 and cfg.kernel.h == 0.1
    assert cfg.regression.eval_one([0.2]) == 1.0


def test_alpha_out_of_range_rejected(tmp_path):
    bad = dict(MINIMAL, kernel={"base": "indicator", "alpha": 1.5, "h": 0.1})
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config(_write(tmp_path, bad))


def test_unknown_key_lists_valid_keys(tmp_path):
    bad = dict(MINIMAL, bandwidth=0.5)
    with pytest.raises(ConfigError, match="bandwidth") as err:
        parse_config(_write(tmp_path, bad))
    assert "kernel" in str(err.value)  # the valid-key list is part of the message


def test_unknown_nested_kind(tmp_path):
    bad = dict(MINIMAL, noise={"kind": "laplace", "scale": 1.0})
    with pytest.raises(ConfigError, match="laplace"):
        parse_config(_write(tmp_path, bad))


def test_round_trip_identity(tmp_path):
    holder_null = dict(MINIMAL, regression={"kind": "constant", "value": 1.0, "holder": None})
    for payload in (MINIMAL, holder_null):
        cfg = parse_config(_write(tmp_path, payload))
        again = config_from_dict(json.loads(serialize_config(cfg)))
        assert again == cfg
        assert config_to_dict(again) == config_to_dict(cfg)
    assert cfg.regression.holder is None


RICH = {
    "schema_version": 1,
    "dimension": 2,
    "n": 50,
    "density": {
        "kind": "mixture",
        "components": [
            {"weight": 0.25, "density": {"kind": "uniform_ball", "center": [0.0, 0.0], "radius": 1.0}},
            {"weight": 0.75, "density": {"kind": "gaussian", "mean": [1.0, 1.0], "stddev": 0.5}},
        ],
    },
    "kernel": {"base": "triangle", "alpha": 0.5, "h": 0.2},
    "regression": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 2.0, "phase": 0.3},
    "noise": {"kind": "rademacher", "sigma_b": 0.5},
    "constants": {"r0": 1.0, "c0": 0.25, "p0": None, "beta": 1.0},
    "query": {"integrated": {"outer": 50, "inner": 25}},
    "replications": 5000,
    "master_seed": 99,
    "deltas": [0.1, 0.2],
}


def test_round_trip_rich_config(tmp_path):
    cfg = parse_config(_write(tmp_path, RICH))
    again = config_from_dict(json.loads(serialize_config(cfg)))
    assert again == cfg


def test_query_point_outside_support_rejected(tmp_path):
    bad = dict(MINIMAL, query={"points": [[2.0]]})
    with pytest.raises(ConfigError, match="outside the support"):
        parse_config(_write(tmp_path, bad))


def test_query_requires_exactly_one_mode():
    with pytest.raises(ConfigError):
        QuerySpec(points=((0.5,),), outer=10, inner=10)
    with pytest.raises(ConfigError):
        QuerySpec()


@pytest.mark.parametrize("query, message", [
    ({"points": [[0.5]], "integrated": {"outer": 10, "inner": 10}}, "either"),
    ({}, "either"),
    ({"points": []}, "at least one point"),
], ids=["both", "neither", "no_points"])
def test_query_mode_checked_in_config(query, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(dict(MINIMAL, query=query))


def test_deltas_validated(tmp_path):
    bad = dict(MINIMAL, deltas=[0.5, 0.25])
    with pytest.raises(ConfigError, match="deltas"):
        parse_config(_write(tmp_path, bad))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(path)


def test_schema_version_checked(tmp_path):
    for version in (2, True):
        bad = dict(MINIMAL, schema_version=version)
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(_write(tmp_path, bad))


def test_builder_round_trip_matches_helpers():
    cfg = unit_interval_scenario(n=25, h=0.05)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


CUBE = {"kind": "uniform_cube", "lo": [0.0], "hi": [1.0]}
GAUSSIAN = {"kind": "gaussian", "mean": [0.5], "stddev": 0.3}

# one section of a 1-D config for every row of the kind table and every kernel base
TABLE_ROWS = {
    ("density", "uniform_cube"): CUBE,
    ("density", "uniform_ball"): {"kind": "uniform_ball", "center": [0.5], "radius": 0.5},
    ("density", "gaussian"): GAUSSIAN,
    ("density", "mixture"): {"kind": "mixture", "components": [
        {"weight": 0.25, "density": CUBE}, {"weight": 0.75, "density": GAUSSIAN},
    ]},
    ("regression", "constant"): {"kind": "constant", "value": -2.0, "bound": 3.0},
    ("regression", "linear"): {"kind": "linear", "slope": [2.0], "intercept": -1.0, "bound": 1.0},
    ("regression", "sinusoid"): {"kind": "sinusoid", "amplitude": 1.0, "frequency": 2.0,
                                 "phase": 0.3, "holder": {"a": 1.0, "L": 13.0}},
    ("regression", "cusp"): {"kind": "cusp", "scale": 1.5, "exponent": 0.5,
                             "anchor": [0.5], "bound": 1.0},
    ("noise", "none"): {"kind": "none"},
    ("noise", "bounded_uniform"): {"kind": "bounded_uniform", "sigma_b": 0.5},
    ("noise", "rademacher"): {"kind": "rademacher", "sigma_b": 0.5},
    ("noise", "gaussian"): {"kind": "gaussian", "stddev": 0.5},
    ("kernel", "indicator"): {"base": "indicator", "alpha": 1.0, "h": 0.1},
    ("kernel", "triangle"): {"base": "triangle", "alpha": 0.5, "h": 0.2},
    ("kernel", "half_plateau"): {"base": "half_plateau", "alpha": 1.0, "h": 0.1,
                                 "m1": 0.25, "m2": 1.0},
}

REPO = os.path.join(os.path.dirname(__file__), "..")
SHIPPED = sorted(glob.glob(os.path.join(REPO, "configs", "*.json"))
                 + glob.glob(os.path.join(REPO, "bench", "configs", "*.json")))


def _assert_round_trips(cfg):
    text = serialize_config(cfg)
    again = config_from_dict(json.loads(text))
    assert again == cfg
    assert serialize_config(again) == text


def test_table_rows_all_sampled():
    rows = {(section, kind) for section, kinds in _KINDS.items() for kind in kinds}
    rows |= {("kernel", base) for base in _KERNELS_BY_NAME}
    assert set(TABLE_ROWS) == rows


@pytest.mark.parametrize("row", list(TABLE_ROWS), ids=[":".join(r) for r in TABLE_ROWS])
def test_round_trip_every_table_row(row):
    _assert_round_trips(config_from_dict(dict(MINIMAL, **{row[0]: TABLE_ROWS[row]})))


@pytest.mark.parametrize("path", SHIPPED, ids=[os.path.relpath(p, REPO) for p in SHIPPED])
def test_round_trip_shipped_config(path):
    _assert_round_trips(parse_config(path))


@pytest.mark.parametrize("component, message", [
    ({"density": CUBE}, r"missing required key\(s\) \['weight'\]"),
    ({"weight": 1.0, "density": CUBE, "colour": "red"}, r"unknown key\(s\) \['colour'\]"),
], ids=["no_weight", "unknown_key"])
def test_mixture_component_keys_checked(component, message):
    bad = dict(MINIMAL, density={"kind": "mixture", "components": [component]})
    with pytest.raises(ConfigError, match=r"^density\.components\[0\]: " + message):
        config_from_dict(bad)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BASE_DOCS = [_load(p) for p in SHIPPED] + [RICH]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["uniform_ball", "mixture", "linear", "gaussian", "none", "triangle"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _node_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _node_paths(child, path + (key,))


@st.composite
def _mutated_configs(draw):
    """A shipped or rich config with one node replaced by any JSON value, or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    path = draw(st.sampled_from(list(_node_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_mutated_configs())
def test_mutated_config_parses_or_raises_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)

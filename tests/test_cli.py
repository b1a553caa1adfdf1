import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnwlab
from gnwlab import theory
from gnwlab.cli import SWEEP_HEADER, VERIFY_HEADER, cmd_verify, main
from gnwlab.model import KernelSpec, LinearFunction, NoNoise, TriangleKernel, UniformBall
from gnwlab.scenario import QuerySpec, ScenarioConfig, ScenarioConstants

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _cfg(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def _run(*argv) -> int:
    return main(list(argv))


# suite -> shipped config exercising it
SUITE_CONFIGS = [
    ("expectation", "expectation.json"),
    ("variance", "variance.json"),
    ("concentration", "concentration.json"),
    ("bias", "bias.json"),
    ("risk", "risk_pointwise.json"),
    ("risk", "risk_integrated.json"),
    ("decoupling", "expectation.json"),
    ("degree_ratio", "degree_ratio.json"),
    ("degree_ratio", "degree_ratio_gaussian.json"),
]


@pytest.mark.parametrize("suite,config", SUITE_CONFIGS,
                         ids=[f"{s}:{c}" for s, c in SUITE_CONFIGS])
def test_verify_passes_on_shipped_configs(suite, config, tmp_path):
    out = tmp_path / "rows.csv"
    code = _run("verify", "--config", _cfg(config), "--suite", suite, "--out", str(out))
    text = out.read_text()
    lines = text.splitlines()
    assert code == 0, text
    assert lines[0] == VERIFY_HEADER
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[1]), float(fields[2]), float(fields[3])
        assert fields[4] == "pass"


def test_verify_byte_identical_across_threads(tmp_path):
    pairs = []
    for suite, config in SUITE_CONFIGS:
        a = tmp_path / f"{suite}_{config}_1.csv"
        b = tmp_path / f"{suite}_{config}_2.csv"
        assert _run("verify", "--config", _cfg(config), "--suite", suite,
                    "--threads", "1", "--out", str(a), "--replications", "4000") == 0
        assert _run("verify", "--config", _cfg(config), "--suite", suite,
                    "--threads", "2", "--out", str(b), "--replications", "4000") == 0
        pairs.append((a.read_bytes(), b.read_bytes()))
    for one, two in pairs:
        assert one == two


def test_verify_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
             "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_verify_unknown_suite_usage_error(capsys):
    code = _run("verify", "--config", _cfg("expectation.json"), "--suite", "nonsense")
    assert code == 2


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = _run("verify", "--config", str(tmp_path / "nope.json"), "--suite", "expectation")
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_value_is_usage_error(tmp_path, capsys):
    payload = json.loads(open(_cfg("expectation.json")).read())
    payload["kernel"]["alpha"] = 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(bad), "--suite", "expectation")
    assert code == 2
    assert "(0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("query", "points"), [["a"]]),
    (("n",), "ten"),
    (("constants", "p0"), "x"),
])
def test_malformed_config_value_is_usage_error(path, value, tmp_path, capsys):
    payload = json.loads(open(_cfg("expectation.json")).read())
    node = payload
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(bad), "--suite", "expectation")
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("config, path, value", [
    ("expectation.json", ("n",), 10.9),
    ("expectation.json", ("replications",), 200.7),
    ("sweep.json", ("query", "integrated", "inner"), 16.5),
])
def test_fractional_integer_is_usage_error(config, path, value, tmp_path, capsys):
    payload = json.loads(open(_cfg(config)).read())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(bad), "--suite", "expectation")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {'.'.join(path)}: {value!r} is not an integer\n"


def test_integral_float_is_accepted(tmp_path):
    payload = json.loads(open(_cfg("expectation.json")).read())
    payload["n"] = float(payload["n"])
    payload["replications"] = float(payload["replications"])
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(payload))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
                "--out", str(a)) == 0
    assert _run("verify", "--config", str(floats), "--suite", "expectation",
                "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(threads, capsys):
    code = _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
                "--threads", threads)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--threads" in err
    assert err.count("\n") == 1


def test_module_entry_point(tmp_path):
    src = str(Path(gnwlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gnwlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("selftest")
    assert done.returncode == 0, done.stderr
    assert sum(line.startswith("decoupling@n=") for line in done.stdout.splitlines()) == 12
    missing = run("verify", "--config", str(tmp_path / "nope.json"), "--suite", "expectation")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")


def test_expectation_suite_integrates_twice_per_point(monkeypatch):
    # c_n and T once each per query point, 2-D ball, triangle kernel
    points = ((0.1, 0.2), (-0.5, 0.3))
    cfg = ScenarioConfig(
        dimension=2, n=50, density=UniformBall(center=(0.0, 0.0), radius=1.0),
        kernel=KernelSpec(TriangleKernel(), alpha=1.0, h=0.3),
        regression=LinearFunction(slope=(1.0, 0.5), intercept=0.0, bound=1.5),
        noise=NoNoise(), constants=ScenarioConstants(), query=QuerySpec(points=points),
        replications=200, master_seed=7,
    )
    calls = []
    original = theory.integrate_box

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(theory, "integrate_box", counting)
    rows, code = cmd_verify(cfg, "expectation")
    assert len(rows) == len(points) and code == 0
    assert len(calls) == 2 * len(points)


def test_seed_override_changes_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
         "--out", str(a), "--seed", "1")
    _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
         "--out", str(b), "--seed", "2")
    assert a.read_bytes() != b.read_bytes()


def test_sweep_schema_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ("sweep", "--config", _cfg("sweep.json"), "--parameter", "h",
            "--values", "0.05,0.1,0.2")
    assert _run(*args, "--threads", "1", "--out", str(a)) == 0
    assert _run(*args, "--threads", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    for line, expect_h in zip(lines[1:], (0.05, 0.1, 0.2)):
        fields = line.split(",")
        assert fields[0] == "h"
        assert float(fields[1]) == expect_h
        mise = float(fields[2])
        bound = float(fields[5])
        assert 0.0 <= mise <= bound


def test_sweep_rejects_empty_and_unsorted_values(capsys):
    assert _run("sweep", "--config", _cfg("sweep.json"), "--parameter", "h",
                "--values", "") == 2
    assert _run("sweep", "--config", _cfg("sweep.json"), "--parameter", "h",
                "--values", "0.2,0.1") == 2
    # the n column would read 10.5 for a run at n = 10
    assert _run("sweep", "--config", _cfg("sweep.json"), "--parameter", "n",
                "--values", "10.5") == 2


def test_figure_rgg(tmp_path):
    out = tmp_path / "g.svg"
    assert _run("figure", "--config", _cfg("figure_rgg.json"), "--kind", "rgg",
                "--out", str(out)) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 300


def test_figure_rgg_edge_count_matches_mean_degree():
    # with (n-1) E[k] tuned to log n, edges within 20% of n log(n) / 2 over seeds
    import gnwlab.figures as figmod
    from gnwlab.graph import sample_full_graph
    from gnwlab.model import IndicatorKernel, KernelSpec, UniformCube

    n = 1000
    gen = np.random.default_rng(0)
    a, b = gen.random((500_000, 2)), gen.random((500_000, 2))

    def mean_k(h):
        return float(np.mean(np.sum((a - b) ** 2, axis=1) <= h * h))

    lo, hi = 0.01, 0.2
    for _ in range(35):
        mid = 0.5 * (lo + hi)
        if (n - 1) * mean_k(mid) < math.log(n):
            lo = mid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    dens = UniformCube(lo=(0.0, 0.0), hi=(1.0, 1.0))
    kernel = KernelSpec(IndicatorKernel(), alpha=1.0, h=h)
    counts = []
    for seed in range(5):
        g = sample_full_graph(dens, kernel, n, seed=seed)
        svg = figmod.rgg_svg(g)
        assert svg.count("<line") == int(g.adjacency.sum()) // 2
        counts.append(int(g.adjacency.sum()) // 2)
    expected = n * math.log(n) / 2.0
    assert abs(np.mean(counts) - expected) <= 0.2 * expected


def test_figure_tradeoff_and_empty_graph(tmp_path):
    out = tmp_path / "t.svg"
    assert _run("figure", "--config", _cfg("figure_tradeoff.json"), "--kind", "tradeoff",
                "--out", str(out)) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 1000

    payload = json.loads(open(_cfg("figure_rgg.json")).read())
    payload["kernel"]["h"] = 1e-9
    empty_cfg = tmp_path / "empty.json"
    empty_cfg.write_text(json.dumps(payload))
    out2 = tmp_path / "empty.svg"
    assert _run("figure", "--config", str(empty_cfg), "--kind", "rgg",
                "--out", str(out2)) == 0
    svg2 = out2.read_text()
    assert svg2.count("<circle") == 300
    assert svg2.count("<line") == 0


def test_selftest_command(tmp_path):
    out = tmp_path / "s.csv"
    assert _run("selftest", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == VERIFY_HEADER
    assert len(lines) == 13
    assert all(line.endswith("pass") for line in lines[1:])


def test_verification_failure_exit_code(tmp_path):
    # an impossible declared Hoelder class makes the bias suite fail
    payload = json.loads(open(_cfg("bias.json")).read())
    payload["regression"]["holder"] = {"a": 1.0, "L": 1e-9}
    bad = tmp_path / "bad_bias.json"
    bad.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(bad), "--suite", "bias",
                "--out", str(tmp_path / "r.csv"))
    assert code == 1
    text = (tmp_path / "r.csv").read_text()
    assert ",fail" in text

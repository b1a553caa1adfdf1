import hashlib
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
from gnwlab.cli import SUITES, SWEEP_HEADER, VERIFY_HEADER, cmd_verify, main
from gnwlab.model import KernelSpec, LinearFunction, NoNoise, TriangleKernel, UniformBall
from gnwlab.scenario import QuerySpec, ScenarioConfig, ScenarioConstants, parse_config

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
    brackets = []
    if suite == "degree_ratio":
        cfg = parse_config(_cfg(config))
        brackets = [theory.lebesgue_ratio_bracket(cfg.density, cfg.kernel, x)
                    for x in cfg.query_points]
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 5
        name = fields[0]
        theory_value, empirical, slack = map(float, fields[1:4])
        assert fields[4] == "pass"
        # the verdict follows from the columns by the row's side
        if name.startswith(("variance_lower", "degree_ratio_lower")):
            assert empirical >= theory_value - slack, line
        elif name.startswith(("expectation", "decoupling")):
            assert abs(empirical - theory_value) <= slack, line
        else:
            assert empirical <= theory_value + slack, line
        if name.startswith("degree_ratio_"):
            lo, hi = brackets[i // 2]
            assert theory_value == (lo if "_lower@" in name else hi), line


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


@pytest.mark.parametrize("value", [True, math.inf, math.nan], ids=["true", "Infinity", "NaN"])
@pytest.mark.parametrize("path, field", [
    (("n",), "n"),
    (("replications",), "replications"),
    (("kernel", "h"), "kernel.h"),
    (("density", "radius"), "density.radius"),
    (("deltas", 1), "deltas"),
], ids=["n", "replications", "kernel.h", "density.radius", "deltas"])
def test_boolean_or_non_finite_number_is_usage_error(path, field, value, tmp_path, capsys):
    payload = json.loads(open(_cfg("expectation.json")).read())
    payload["density"] = {"kind": "uniform_ball", "center": [0.5], "radius": 0.5}
    payload["deltas"] = [0.25, 0.5]
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(bad), "--suite", "expectation")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize("seed, override", [(-1, None), (2**64, None), (5, "-1")],
                         ids=["negative", "2**64", "override"])
def test_master_seed_out_of_range_is_usage_error(seed, override, tmp_path, capsys):
    payload = json.loads(open(_cfg("expectation.json")).read())
    payload["master_seed"] = seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    extra = [] if override is None else ["--seed", override]
    code = _run("verify", "--config", str(bad), "--suite", "expectation", *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: master_seed must lie in") and err.count("\n") == 1


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
    # --replications below 1 is refused the same way, as in a config,
    # including by the suites that never read it.
    for suite in ("bias", "decoupling", "degree_ratio"):
        code = _run("verify", "--config", _cfg("expectation.json"), "--suite", suite,
                    "--replications", threads)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--replications" in err
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


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # Importing scipy costs most of a shipped command's time.  Only ball
    # windows that cross the support boundary, Gaussian windows and d > 3
    # quadrature need it, and import it where they use it.
    src = str(Path(gnwlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = """
import os, sys
import gnwlab.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(loaded())
cfg, out = sys.argv[1:]
print([gnwlab.cli.main([*argv, "--out", out]) for argv in (
    ["selftest"],
    ["verify", "--config", os.path.join(cfg, "expectation.json"), "--suite", "expectation",
     "--replications", "500"],
    ["sweep", "--config", os.path.join(cfg, "sweep.json"), "--parameter", "h",
     "--values", "0.05,0.1,0.2"],
    ["figure", "--config", os.path.join(cfg, "figure_rgg.json"), "--kind", "rgg"],
)])
print(loaded())
"""
    done = subprocess.run([sys.executable, "-c", script, CONFIG_DIR, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[0, 0, 0, 0]", "[]"]


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
    capsys.readouterr()
    # values follow the config's finite-number rule: no traceback, no h = inf row
    for values in ("abc", "0.1,abc", "inf", "1e400", "nan"):
        assert _run("sweep", "--config", _cfg("sweep.json"), "--parameter", "h",
                    "--values", values) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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
        assert svg.count("<line") == len(g.edges)
        counts.append(len(g.edges))
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


# (exit code, sha256 of the output) of each suite, in SUITES order, on every
# shipped config at --replications 2000; None where the command exits 2 and
# writes nothing.
VERIFY_SHA256 = {
    "bias.json": [
        (0, "f9ef575631913c04f9e707595c321e9b5298c70fb98bca8f63b874888e22f476"),
        (0, "b1c9fa59c0d15c4a64de257dd37b15a6342e5024f223abbb3c8468bd06e299a9"),
        (0, "136181a0f352a7c01d99bf0da443ee81e53f1ea0cf6dded97e37ee49b99e257e"),
        (0, "941264643e155d009de3aaa403415186f0b55b9300492f1235ef36e5f00f513d"),
        (0, "93ddb929becd8f53b39ddbb82e2bf2f5134d6d95b2e0850ee2d4b2122c5bd776"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "267deb730fa1dfa346fd0cb006bda4dbd6f4093ca4c4fa5a78d4dae707536155"),
    ],
    "concentration.json": [
        (0, "67748c97430dcfbb136823958e2c00c858014ce3ab2d23dd86964d7c91d3180a"),
        (0, "a08060870bf1cff2277cfd83afe5d2573d524e85edeb6fedb3672544d3059f99"),
        (0, "b88d8f76cb57f1669525e0fd4c88c7d3c78a87e30e2c9029db8dbb1d62c94782"),
        (0, "ddbe9cfbd9d2931a96905dc2253c8e7e92672b5eebb64df57340da0c52731a3e"),
        (0, "ac2f6ebd87a059fb88c461043b36c5a7d748ff6287d151f1dedc8b3d91694acc"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
    "degree_ratio.json": [
        (0, "a20128b44745042fd61749e6daf012c49c45f8b7d5c0be7065e73c70999c9406"),
        (0, "6270a30686851e6a74c4592e7aac13a35d0ec0a0b53bb069e935b0c239df6400"),
        (0, "ff386d624ac89dc1434c11aaa88704406cd547d7b3bfa5aeaa7536fd56e36f25"),
        (0, "ddbe9cfbd9d2931a96905dc2253c8e7e92672b5eebb64df57340da0c52731a3e"),
        (0, "feac882f33fef0b6f01ce99add8ff9886b9b6ef36ebba19625b245dcf5021edf"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
    "degree_ratio_gaussian.json": [
        (0, "90aedc89e787030815cc4b871ebee1fa4a10b3a253d1b674d2c20334faaf8b6d"),
        (0, "bdede103711734b251e7330e34786a1744f598bda4c093b66b01943631028a35"),
        (0, "4b4561939d52f029ae56adfc8bc9fc1ae2299c826777ba1366b775d6bb38131a"),
        (0, "e7d61d4a1cf35aae59ffabd37a729c317f1c51c1e4a31488f0702bb29c74849b"),
        (0, "2c2214fb6d13265dca812d7a24acb2d5831c167db35c7810c8738764f1f66299"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "8a1b1a0009daabcc2f36afa2be986ca5e25c4975dd5ea2201197bde529e11867"),
    ],
    "expectation.json": [
        (0, "a20128b44745042fd61749e6daf012c49c45f8b7d5c0be7065e73c70999c9406"),
        (0, "6270a30686851e6a74c4592e7aac13a35d0ec0a0b53bb069e935b0c239df6400"),
        (0, "ff386d624ac89dc1434c11aaa88704406cd547d7b3bfa5aeaa7536fd56e36f25"),
        (0, "ddbe9cfbd9d2931a96905dc2253c8e7e92672b5eebb64df57340da0c52731a3e"),
        (0, "feac882f33fef0b6f01ce99add8ff9886b9b6ef36ebba19625b245dcf5021edf"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
    "figure_rgg.json": [
        (0, "ea05a60c7610f9c5357ac4b1fc6117a9611fc71355397e9b282d6d7af90ced70"),
        (0, "d8287f11e54267e59b3fd0eaf2704a885f6af76832da48a31bc69861d5dc5723"),
        (0, "69aa70c5372d9b0f8daef3962002a9f556f5add767da449c8e7e104a172d0cd2"),
        (0, "7ad54c33cad64f6d64cfe17440d57f876ea7be2e8e9c9360850063d34e602fc7"),
        (2, None),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "945d98d136cf467de12fa467b9a81620403d9cd8dbe2e4d2ef26a31bc26f8501"),
    ],
    "figure_tradeoff.json": [
        (0, "038201e153e27bc040e22d27cac1a26fce6b713232b6781edbb5bceb05665cfc"),
        (0, "ac70f3aa3129d324e834ada1917c1114aceffd6b8ffdb1d5036769729f36ac48"),
        (2, None),
        (0, "96f22036fe08137d26d247b392e4f394f14f004d4c8c0d9ae5d8c72872532d80"),
        (2, None),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
    "risk_integrated.json": [
        (2, None),
        (2, None),
        (2, None),
        (2, None),
        (0, "de4794bccb4f69036eafac3befc684fc1722e73cadf82e95c140742c96a01072"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (2, None),
    ],
    "risk_pointwise.json": [
        (0, "1c78cc6024e47e21efb2906988973e1f665025986a8cb0596f7c6dae4efabc54"),
        (0, "6e666ba3c24f1aaed425c4b1ccee0181c48cbce58726ef1cad0bb58575fa720f"),
        (2, None),
        (0, "ddbe9cfbd9d2931a96905dc2253c8e7e92672b5eebb64df57340da0c52731a3e"),
        (0, "8b85677a068df02d49457c6e14f9fb7c8ca796e52356b8f48b37bd8cc55e500a"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
    "sweep.json": [
        (2, None),
        (2, None),
        (2, None),
        (2, None),
        (0, "ceffce4eec6372e20b89294269ab94ed65db5e0592d6d2d994f99268466ac35e"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (2, None),
    ],
    "variance.json": [
        (0, "7148d5abc1b650ede753b29ea12c2a4e75212aaab42b8f9bd262cb58fa17706d"),
        (0, "a189024e17b1d90a407ffbe58f63fd5bc3d23a0f7e17a061ae08ac36f30409a9"),
        (2, None),
        (0, "ddbe9cfbd9d2931a96905dc2253c8e7e92672b5eebb64df57340da0c52731a3e"),
        (0, "18931d49516b755dfc7063fd498b69f2722948cd3b6395f89f24d8c5fe2ae3e5"),
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
        (0, "b0eaaf1967ea84d22a13ee22744ab4fdf62d2220649050e52ceff7feae00bd74"),
    ],
}
_SWEEP = ("sweep", "--config", _cfg("sweep.json"), "--parameter", "h",
          "--values", "0.02,0.05,0.1,0.2,0.4")
_SWEEP_SHA256 = "56da42ccb0c1f0a2f7003b427bde78507fca750f817186e8f201d7d8b92d2c73"

# (exit code, sha256 of the output) of the pinned commands: the full-graph and
# tradeoff figures, selftest, the sweep at both thread counts and the verify
# matrix above.  Any change to these bytes must be deliberate.
FULL_SAMPLER_SHA256 = {
    ("selftest",):
        (0, "7b503f2335027959c2e9f3ff8e8584138b1849dde4269d4ebbec0e78e33f5816"),
    ("figure", "--config", _cfg("figure_rgg.json"), "--kind", "rgg"):
        (0, "c0eebcb39acea0c4ed30a7253a28468cc4fc22238b0be57ce08f11e5d6c224fb"),
    ("figure", "--config", _cfg("figure_tradeoff.json"), "--kind", "tradeoff"):
        (0, "6142773ad956543427b6ce31239cd96a5872fd0d82cfc9c07bd11b4cb73cc984"),
    (*_SWEEP, "--threads", "1"): (0, _SWEEP_SHA256),
    (*_SWEEP, "--threads", "2"): (0, _SWEEP_SHA256),
    ("verify", "--config", _cfg("risk_integrated.json"), "--suite", "risk", "--threads", "2"):
        (0, "de4794bccb4f69036eafac3befc684fc1722e73cadf82e95c140742c96a01072"),
}
for _config, _pins in VERIFY_SHA256.items():
    for _suite, _pin in zip(SUITES, _pins, strict=True):
        FULL_SAMPLER_SHA256[("verify", "--config", _cfg(_config), "--suite", _suite,
                             "--replications", "2000")] = _pin
_PINNED_IDS = ["selftest", "rgg", "tradeoff", "sweep-threads1", "sweep-threads2",
               "risk_integrated-threads2",
               *(f"{c}:{s}" for c in VERIFY_SHA256 for s in SUITES)]


def test_every_shipped_config_is_pinned():
    assert sorted(VERIFY_SHA256) == sorted(os.listdir(CONFIG_DIR))


@pytest.mark.parametrize("argv", FULL_SAMPLER_SHA256, ids=_PINNED_IDS)
def test_full_sampler_outputs_pinned(argv, tmp_path):
    out = tmp_path / "out"
    code, sha = FULL_SAMPLER_SHA256[argv]
    assert _run(*argv, "--out", str(out)) == code
    if sha is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_float_budget_is_usage_error(tmp_path, capsys):
    payload = json.loads(open(_cfg("expectation.json")).read())
    payload["n"] = 10**15
    big = tmp_path / "big.json"
    big.write_text(json.dumps(payload))
    code = _run("verify", "--config", str(big), "--suite", "expectation",
                "--out", str(tmp_path / "r.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "budget" in err
    # The tradeoff figure's budget counts its grid rows too.
    payload = json.loads(open(_cfg("figure_tradeoff.json")).read())
    payload["n"] = 600_000  # 600,000 x 518 float64 values, above 1 GiB
    big.write_text(json.dumps(payload))
    code = _run("figure", "--config", str(big), "--kind", "tradeoff",
                "--out", str(tmp_path / "t.svg"))
    assert code == 2
    _one_line_error(capsys, "a tradeoff figure of 600000 nodes", "budget")
    assert not (tmp_path / "t.svg").exists()


def test_rgg_pair_budget_is_usage_error(tmp_path, capsys):
    # The budget counts the cell list's candidate pairs, not all n(n-1)/2.
    payload = json.loads(open(_cfg("figure_rgg.json")).read())
    payload["n"] = 100_000  # about 2.5e8 candidates at h = 0.08, above 20,000,000
    big = tmp_path / "big.json"
    big.write_text(json.dumps(payload))
    code = _run("figure", "--config", str(big), "--kind", "rgg", "--out", str(tmp_path / "g.svg"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    candidates = int(err.split()[1])
    assert candidates > 20_000_000 and f"{candidates} candidate pairs" in err
    assert "budget 20000000" in err
    assert not (tmp_path / "g.svg").exists()
    # n too large for the latents is refused before they are drawn.
    payload["n"] = 10**15
    big.write_text(json.dumps(payload))
    code = _run("figure", "--config", str(big), "--kind", "rgg", "--out", str(tmp_path / "g.svg"))
    assert code == 2
    _one_line_error(capsys, "a full graph of 1000000000000000 nodes", "budget")
    # 49,995,000 pairs but about 4.4e4 candidates: once refused, now drawn.
    payload["n"], payload["kernel"]["h"] = 10_000, 0.01
    big.write_text(json.dumps(payload))
    code = _run("figure", "--config", str(big), "--kind", "rgg", "--out", str(tmp_path / "g.svg"))
    assert code == 0 and (tmp_path / "g.svg").exists()


def _with(config: str, tmp_path, **edits) -> str:
    """Path of a copy of a shipped config with top-level keys replaced."""
    payload = json.loads(open(_cfg(config)).read())
    payload.update(edits)
    path = tmp_path / f"edited_{config}"
    path.write_text(json.dumps(payload))
    return str(path)


def _one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(needle in err for needle in needles), err


def test_n_beyond_a_c_long_is_usage_error(tmp_path, capsys):
    # numpy's binomial draw takes n as a C long; 2**63 - 1 still reaches
    # the float budget instead.
    out = str(tmp_path / "r.csv")
    huge = _with("expectation.json", tmp_path, n=2**63)
    assert _run("verify", "--config", huge, "--suite", "expectation", "--out", out) == 2
    _one_line_error(capsys, "2**63", str(2**63))
    assert _run("sweep", "--config", _cfg("sweep.json"), "--parameter", "n",
                "--values", "1e20", "--out", out) == 2
    _one_line_error(capsys, "2**63", str(10**20))
    below = _with("expectation.json", tmp_path, n=2**63 - 1)
    assert _run("verify", "--config", below, "--suite", "expectation", "--out", out) == 2
    _one_line_error(capsys, "budget")
    # suites that sample nothing still run at any n
    theory_only = _with("degree_ratio.json", tmp_path, n=10**20)
    assert _run("verify", "--config", theory_only, "--suite", "degree_ratio", "--out", out) == 0


@pytest.mark.parametrize("replications", ("1000000000000", "100000000000000000000"))
def test_replications_above_the_float_budget_are_usage_error(replications, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert _run("verify", "--config", _cfg("expectation.json"), "--suite", "expectation",
                "--replications", replications, "--out", str(out)) == 2
    _one_line_error(capsys, f"{replications} replications", "budget")
    assert not out.exists()


def test_integrated_outer_draw_above_the_float_budget_is_usage_error(tmp_path, capsys):
    payload = json.loads(open(_cfg("risk_integrated.json")).read())
    payload["query"]["integrated"]["outer"] = 10**12
    path = tmp_path / "outer.json"
    path.write_text(json.dumps(payload))
    assert _run("verify", "--config", str(path), "--suite", "risk",
                "--out", str(tmp_path / "r.csv")) == 2
    _one_line_error(capsys, f"{10**12} query points", "budget")

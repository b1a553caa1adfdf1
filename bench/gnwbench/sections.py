"""Timed calls into gnwlab and the independent checks on their outputs.

A section makes one workload step: it calls gnwlab through its public entry
points (``gnwlab.cli.main`` for commands, the Python API otherwise), times
only those calls, and then checks what they returned against values this
module computes on its own.  Every check counts as one operation attempted.
Each timed call is recorded with the metric it feeds; the worker turns the
records into metrics once the run is over.
Entry points are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gnwlab.cli
import gnwlab.estimators
import gnwlab.graph
import gnwlab.theory
from gnwlab.model import (
    GaussianNoise,
    IndicatorKernel,
    KernelSpec,
    LinearFunction,
    TriangleKernel,
    UniformBall,
    UniformCube,
)

# int_0^1 K(r) r dr for the triangle profile K(r) = min(1, 2 - 2r):
# 1/8 on [0, 1/2] plus [r^2 - 2r^3/3] from 1/2 to 1, i.e. 1/6.
TRIANGLE_RADIAL_2D = 1.0 / 8.0 + 1.0 / 6.0
# int_0^1 K(r) r^2 dr for the same profile: 1/24 plus 11/96, i.e. 5/32.
TRIANGLE_RADIAL_3D = 1.0 / 24.0 + 11.0 / 96.0
TRIANGLE_M2 = 1.0  # the triangle profile vanishes beyond r = 1

SVG_SIDE = 800.0 - 2 * 40.0  # plotting width of gnwlab's figures
SVG_ROUNDING = 0.02  # four coordinates printed to 0.01 move a length < 0.015
EDGE_BOUNDARY_REL = 1e-12  # points this close to the kernel radius may round either way


@dataclass(frozen=True)
class Call:
    """One timed call: the metric it feeds, its round (-1 for probes), its
    interval, its seconds less reference bursts, and a work count."""

    metric: str | None
    round: int
    t0: float
    t1: float
    seconds: float
    work: float = 1.0


class Run:
    """Check counts, timed calls and outputs of one worker run."""

    def __init__(self, spec: dict, clock):
        self.spec = spec
        self.clock = clock
        self.round = -1
        self.tmp = Path(spec["tmp"])
        self.attempted = 0
        self.failures: list[str] = []
        self.calls: list[Call] = []
        self.outputs: dict[str, bytes] = {}
        self.last_full_graph = None
        self._draw_inputs = None
        self._unpatch_capture = _capture_full_graph(self)

    def close(self):
        self._unpatch_capture()

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def timed(self, metric: str | None, work: float, fn, *args, threaded: bool = False):
        """Call fn, record its timing for ``metric``, return its result."""
        result, t0, t1, seconds = self.clock.timed(fn, *args, threaded=threaded)
        self.calls.append(Call(metric, self.round, t0, t1, seconds, work))
        return result

    def cli(self, name: str, argv: list[str], metric: str | None = None,
            work: float = 1.0, threaded: bool = False) -> str:
        """Run one gnwlab command in-process; returns its output text."""
        out = self.tmp / name
        if out.exists():
            out.unlink()
        argv = [*argv, "--seed", str(self.spec["seed"]), "--out", str(out)]
        code = self.timed(metric, work, _cli_main, argv, threaded=threaded)
        self.check(code == 0, f"{name}: exit code {code}")
        data = out.read_bytes() if out.exists() else b""
        self.outputs[name] = data
        return data.decode("utf-8")


def _cli_main(argv):
    return gnwlab.cli.main(argv)


def _capture_full_graph(run: Run):
    """Keep the last FullGraph the rgg command drew, for its figure scale."""
    original = gnwlab.cli.sample_full_graph

    def capture(*args, **kwargs):
        run.last_full_graph = original(*args, **kwargs)
        return run.last_full_graph

    gnwlab.cli.sample_full_graph = capture

    def restore():
        gnwlab.cli.sample_full_graph = original

    return restore


def _csv_rows(run: Run, name: str, text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    run.check(bool(lines) and lines[0] == header, f"{name}: header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _config(run: Run, section: str) -> tuple[str, dict]:
    path = run.spec["configs"][section]
    return path, json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def expectation(run: Run):
    """verify --suite expectation on a 2-D ball, triangle kernel, f = 1."""
    path, raw = _config(run, "expectation")
    text = run.cli("expectation.csv", [
        "verify", "--config", path, "--suite", "expectation", "--threads", "1"],
        "replications", raw["replications"])
    rows = _csv_rows(run, "expectation", text, gnwlab.cli.VERIFY_HEADER)
    run.check(len(rows) == 1, f"expectation: {len(rows)} rows")
    n = raw["n"]
    alpha, h = raw["kernel"]["alpha"], raw["kernel"]["h"]
    radius = raw["density"]["radius"]
    # On a window inside the ball, c_n = alpha h^2 2 pi int K(r) r dr / (pi R^2),
    # and b_n = f = 1, so E = 1 - (1 - c_n)^n.
    c_n = alpha * h * h * 2.0 * math.pi * TRIANGLE_RADIAL_2D / (math.pi * radius**2)
    expected = 1.0 - (1.0 - c_n) ** n
    for row in rows[:1]:
        theory, empirical, slack = float(row[1]), float(row[2]), float(row[3])
        run.check(_close(theory, expected, 1e-8),
                  f"expectation: theory {theory!r} != {expected!r}")
        run.check(abs(empirical - expected) <= slack,
                  f"expectation: |{empirical!r} - {expected!r}| > {slack!r}")


def _sweep(run: Run, section: str, hs: list[float]):
    path, raw = _config(run, section)
    values = ",".join(repr(h) for h in hs)
    q = raw["query"]["integrated"]
    text = run.cli(f"{section}.csv", [
        "sweep", "--config", path, "--parameter", "h", "--values", values, "--threads", "2"],
        "replications", len(hs) * q["outer"] * q["inner"], threaded=True)
    rows = _csv_rows(run, section, text, gnwlab.cli.SWEEP_HEADER)
    run.check([(r[0], float(r[1])) for r in rows] == [("h", h) for h in hs],
              f"{section}: rows {[r[:2] for r in rows]}")
    reg, cst, ker = raw["regression"], raw["constants"], raw["kernel"]
    n, alpha = raw["n"], ker["alpha"]
    B = abs(reg["amplitude"])
    L = 2.0 * math.pi * abs(reg["amplitude"] * reg["frequency"])
    sigma_sq = raw["noise"]["stddev"] ** 2
    M1 = M2 = 1.0  # envelope radii of the indicator kernel
    v1 = 2.0  # length of the unit ball in one dimension
    c0, p0 = cst["c0"], cst["p0"]
    for row, h in zip(rows, hs):
        mise, pointwise = float(row[2]), float(row[4])
        bias_bound, variance_bound, d_n_min = float(row[6]), float(row[7]), float(row[8])
        d_min = c0 * v1 * M1 * n * alpha * h * p0 / 2.0
        closed = 4.0 * L * L * M2**2 * h * h + (1044.0 * B * B + 260.0 * sigma_sq) / (
            c0 * v1 * M1 * n * alpha * h * p0)
        run.check(_close(bias_bound, 2.0 * L * M2 * h, 1e-12),
                  f"{section}@h={h}: bias_bound {bias_bound!r}")
        run.check(_close(d_n_min, d_min, 1e-12), f"{section}@h={h}: d_n_min {d_n_min!r}")
        run.check(_close(variance_bound, (261.0 * B * B + 65.0 * sigma_sq) / d_min, 1e-12),
                  f"{section}@h={h}: variance_bound {variance_bound!r}")
        run.check(_close(pointwise, closed, 1e-12),
                  f"{section}@h={h}: pointwise_bound {pointwise!r} != {closed!r}")
        run.check(0.0 < mise <= pointwise, f"{section}@h={h}: mise {mise!r}")


def sweep(run: Run):
    """sweep --parameter h over four values with two threads."""
    _sweep(run, "sweep", run.spec["sweep_h"])


def sweep_probe(run: Run):
    """A one-value sweep, for replications_per_s where no Monte Carlo runs."""
    _sweep(run, "sweep_probe", run.spec["probe_sweep_h"])


# ---------------------------------------------------------------------------
# Quadrature and theory
# ---------------------------------------------------------------------------


def bias(run: Run):
    """verify --suite bias: linear f on a uniform ball, so b_n = f(x) exactly."""
    path, raw = _config(run, "bias")
    text = run.cli("bias.csv", ["verify", "--config", path, "--suite", "bias"])
    rows = _csv_rows(run, "bias", text, gnwlab.cli.VERIFY_HEADER)
    points = raw["query"]["points"]
    run.check(len(rows) == len(points), f"bias: {len(rows)} rows for {len(points)} points")
    for row, x in zip(rows, points):
        # The window lies inside the ball, where p is constant and k is
        # radial, so T/c_n averages a linear f to its value at the centre:
        # the whole gap is quadrature error.
        gap, err = float(row[2]), float(row[3])
        run.check(gap <= err, f"bias@{x}: gap {gap!r} above reported error {err!r}")


def degree_ratio(run: Run):
    """verify --suite degree_ratio on the standard 2-D Gaussian."""
    path, raw = _config(run, "degree_ratio")
    text = run.cli("degree_ratio.csv", [
        "verify", "--config", path, "--suite", "degree_ratio"])
    rows = _csv_rows(run, "degree_ratio", text, gnwlab.cli.VERIFY_HEADER)
    run.check(len(rows) == 2, f"degree_ratio: {len(rows)} rows")
    x = raw["query"]["points"][0]
    p_x = math.exp(-0.5 * (x[0] ** 2 + x[1] ** 2)) / (2.0 * math.pi)
    limit = p_x * 2.0 * math.pi * TRIANGLE_RADIAL_2D  # p(x) 7 pi / 12
    for row in rows[:1]:
        final = float(row[2])
        run.check(abs(final - limit) <= 0.01 * limit,
                  f"degree_ratio@{x}: {final!r} not within 1% of {limit!r}")


def _cn3d(run: Run, rel_tol: float):
    h = run.spec["cn3d_h"]
    ball = UniformBall(center=(0.0, 0.0, 0.0), radius=1.0)
    kernel = KernelSpec(TriangleKernel(), alpha=1.0, h=h)
    c_n, err = run.timed("cn3d", 1.0, _local_connection, ball, kernel, rel_tol)
    # alpha h^3 4 pi int K(r) r^2 dr over the ball volume 4 pi / 3: 15 alpha h^3 / 32.
    exact = kernel.alpha * h**3 * 3.0 * TRIANGLE_RADIAL_3D
    run.check(abs(c_n - exact) <= err, f"cn3d: |{c_n!r} - {exact!r}| > {err!r}")


def _local_connection(ball, kernel, rel_tol):
    return gnwlab.theory.local_connection(ball, kernel, (0.0, 0.0, 0.0), rel_tol=rel_tol)


def cn3d(run: Run):
    """One 3-D local_connection at the ball's centre, default tolerance."""
    _cn3d(run, run.spec["cn3d_rel_tol"])


def cn3d_probe(run: Run):
    """The same call at a loose tolerance, for cn3d_s on other workloads."""
    _cn3d(run, run.spec["cn3d_probe_rel_tol"])


# ---------------------------------------------------------------------------
# Graph paths
# ---------------------------------------------------------------------------


def _draw_inputs(run: Run):
    if run._draw_inputs is None:
        run._draw_inputs = [
            (
                UniformCube(lo=(0.0,) * s["d"], hi=(1.0,) * s["d"]),
                KernelSpec(IndicatorKernel(), alpha=1.0, h=s["h"]),
                LinearFunction(slope=tuple(s["slope"]), intercept=s["intercept"],
                               bound=s["bound"]),
                GaussianNoise(stddev=s["noise_sd"]),
                s,
            )
            for s in run.spec["draws"]
        ]
    return run._draw_inputs


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _draw(density, kernel, regression, noise, s):
    nbhd = gnwlab.graph.sample_neighborhood(
        density, kernel, regression, noise, s["n"], s["x"], s["replication"], s["master_seed"])
    gnw = gnwlab.estimators.gnw_predict(nbhd)
    nw = gnwlab.estimators.nw_predict(nbhd.x, nbhd.points, nbhd.labels, kernel)
    return nbhd, gnw, nw


def draws(run: Run):
    """Single reproducible draws, each followed by both predictions."""
    for i, (density, kernel, regression, noise, s) in enumerate(_draw_inputs(run)):
        nbhd, gnw, nw = run.timed("draw", 1.0, _draw, density, kernel, regression, noise, s)

        run.check(_bits(gnw.value) == _bits(nw.value) and _bits(gnw.mass) == _bits(nw.mass),
                  f"draw {i}: gnw {gnw} != nw {nw}")
        edges_ok = nbhd.points.shape == (s["n"], s["d"]) and nbhd.edges.shape == (s["n"],)
        if edges_ok:
            for point, edge in zip(nbhd.points.tolist(), nbhd.edges.tolist()):
                dist = math.dist(point, s["x"])
                if bool(edge) != (dist <= s["h"]) and \
                        abs(dist - s["h"]) > EDGE_BOUNDARY_REL * s["h"]:
                    edges_ok = False
        run.check(edges_ok, f"draw {i}: edges differ from 1{{|X_i - x| <= h}}")


_CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"')
_LINE = re.compile(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"')


def rgg(run: Run):
    """figure --kind rgg on the unit square: the dense all-pairs graph."""
    path, raw = _config(run, "rgg")
    svg = run.cli("rgg.svg", ["figure", "--config", path, "--kind", "rgg"], "rgg")
    n = raw["n"]
    run.check(len(_CIRCLE.findall(svg)) == n, f"rgg: circle count != {n}")
    graph = run.last_full_graph
    ok = graph is not None and graph.points.shape == (n, 2)
    if ok:
        span = graph.points.max(axis=0) - graph.points.min(axis=0)
        scale = SVG_SIDE / float(np.min(span))
        limit = TRIANGLE_M2 * raw["kernel"]["h"] * scale + SVG_ROUNDING
        seg = np.array(_LINE.findall(svg), dtype=float).reshape(-1, 4)
        lengths = np.hypot(seg[:, 2] - seg[:, 0], seg[:, 3] - seg[:, 1])
        ok = bool(np.all(lengths <= limit))
    run.check(ok, "rgg: a segment is longer than M2*h in the figure's scale")


def selftest(run: Run):
    """gnwlab selftest: exhaustive ratio-weight identities for n = 1..12."""
    text = run.cli("selftest.csv", ["selftest"], "selftest")
    rows = _csv_rows(run, "selftest", text, gnwlab.cli.VERIFY_HEADER)
    run.check(len(rows) == 12, f"selftest: {len(rows)} rows")
    for n, row in enumerate(rows, start=1):
        run.check(row[0] == f"decoupling@n={n}" and row[-1] == "pass",
                  f"selftest: row {row}")


SECTIONS = {
    "expectation": expectation,
    "sweep": sweep,
    "sweep_probe": sweep_probe,
    "bias": bias,
    "degree_ratio": degree_ratio,
    "cn3d": cn3d,
    "cn3d_probe": cn3d_probe,
    "draws": draws,
    "rgg": rgg,
    "selftest": selftest,
}

"""Workload make-up and the seeded input generator.

Everything a run feeds to gnwlab is derived here from the benchmark seed with
the standard library's Mersenne Twister, so the same seed always gives the
same inputs and the program only ever sees the generated files and values.
This module imports nothing but the standard library: the harness uses it
before any gnwlab process starts.
"""

import json
import math
import random
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Sections a workload times in every round ("own"), and sections it runs once
# after its rounds only to report the end-to-end metrics its own calls do not
# produce ("probes").  Probes are never traced and never count in wall_s or
# peak_rss_mb.
WORKLOADS = {
    "mc_pointwise": {"own": ["expectation"],
                     "probes": ["draws", "rgg", "selftest", "cn3d_probe"]},
    "mc_sweep": {"own": ["sweep"],
                 "probes": ["draws", "rgg", "selftest", "cn3d_probe"]},
    "theory_quad": {"own": ["bias", "degree_ratio", "cn3d"],
                    "probes": ["sweep_probe", "draws", "rgg", "selftest"]},
    "graph_draws": {"own": ["draws", "rgg", "selftest"],
                    "probes": ["sweep_probe", "cn3d_probe"]},
}

# Config template each CLI section reads (bench/configs/<name>.json).
SECTION_CONFIG = {
    "expectation": "mc_pointwise",
    "sweep": "mc_sweep",
    "sweep_probe": "mc_sweep",
    "bias": "bias_ball_2d",
    "degree_ratio": "degree_ratio_gaussian_2d",
    "rgg": "rgg_square_2d",
}

SWEEP_H = (0.02, 0.05, 0.1, 0.2)
PROBE_SWEEP_H = (0.1,)
CN3D_H = 0.4

# "full" is what the benchmark measures; "small" is the self-check's
# reduced pass, which runs every section and every check in seconds.
# probe_passes: times each probe section runs, in interleaved passes; enough
# that the median of a metric fed by ~1 s calls is steady from run to run.
# The 200 draws already give a steady median in one pass.
SIZES = {
    "full": {
        "probe_passes": {"sweep_probe": 4, "cn3d_probe": 3, "selftest": 2, "rgg": 1, "draws": 1},
        "expectation_n": 10_000, "expectation_R": 2000,
        "sweep_outer": 1000, "sweep_inner": 50,
        "probe_outer": 400, "probe_inner": 50,
        "bias_points": 2, "draws": 200, "rgg_n": 6000,
        "cn3d_rel_tol": 1e-8, "cn3d_probe_rel_tol": 1e-3,
    },
    "small": {
        "probe_passes": {"sweep_probe": 1, "cn3d_probe": 1, "selftest": 1, "rgg": 1, "draws": 1},
        "expectation_n": 1000, "expectation_R": 200,
        "sweep_outer": 20, "sweep_inner": 10,
        "probe_outer": 10, "probe_inner": 10,
        "bias_points": 1, "draws": 20, "rgg_n": 300,
        "cn3d_rel_tol": 1e-3, "cn3d_probe_rel_tol": 1e-3,
    },
}


def sections_of(workload: str) -> list[str]:
    spec = WORKLOADS[workload]
    return spec["own"] + spec["probes"]


def _disk_point(rnd: random.Random, radius: float) -> list[float]:
    """Uniform point in the centred 2-D disk of the given radius."""
    r = radius * math.sqrt(rnd.random())
    t = 2.0 * math.pi * rnd.random()
    return [r * math.cos(t), r * math.sin(t)]


def _draw_scenario(rnd: random.Random) -> dict:
    d = rnd.choice((1, 2))
    slope = [rnd.uniform(-1.0, 1.0) for _ in range(d)]
    intercept = rnd.uniform(-0.5, 0.5)
    return {
        "d": d,
        "n": rnd.randint(1, 40),
        "h": rnd.uniform(0.02, 0.6),
        "replication": rnd.randint(0, 6),
        "x": [rnd.random() for _ in range(d)],
        "master_seed": rnd.randrange(2**31),
        "slope": slope,
        "intercept": intercept,
        "bound": sum(abs(s) for s in slope) + abs(intercept),
        "noise_sd": 0.5,
    }


def _write_config(tmp: Path, template: str, section: str, edit) -> str:
    raw = json.loads((CONFIG_DIR / f"{template}.json").read_text(encoding="utf-8"))
    edit(raw)
    path = tmp / f"{section}.json"
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def generate(workload: str, seed: int, scale: str, tmp: Path, src: Path) -> dict:
    """Write the run's configs into ``tmp`` and return the run spec."""
    size = SIZES[scale]
    rnd = random.Random(f"gnwlab-bench/{seed}")
    # Every input is drawn in a fixed order whatever the workload and scale,
    # so a section sees the same inputs for a given seed in every workload.
    expectation_x = _disk_point(rnd, 0.5)
    bias_xs = [_disk_point(rnd, 0.8) for _ in range(3)][:size["bias_points"]]
    ratio_x = [rnd.gauss(0.0, 0.7), rnd.gauss(0.0, 0.7)]
    draws = [_draw_scenario(rnd) for _ in range(SIZES["full"]["draws"])][:size["draws"]]

    def expectation(raw):
        raw["n"] = size["expectation_n"]
        raw["replications"] = size["expectation_R"]
        raw["query"] = {"points": [expectation_x]}

    def integrated(outer, inner):
        def edit(raw):
            raw["query"] = {"integrated": {"outer": outer, "inner": inner}}
        return edit

    def bias(raw):
        raw["query"] = {"points": bias_xs}

    def ratio(raw):
        raw["query"] = {"points": [ratio_x]}

    def rgg(raw):
        raw["n"] = size["rgg_n"]

    editors = {
        "expectation": expectation,
        "sweep": integrated(size["sweep_outer"], size["sweep_inner"]),
        "sweep_probe": integrated(size["probe_outer"], size["probe_inner"]),
        "bias": bias,
        "degree_ratio": ratio,
        "rgg": rgg,
    }
    configs = {
        section: _write_config(tmp, SECTION_CONFIG[section], section, editors[section])
        for section in sections_of(workload) if section in SECTION_CONFIG
    }
    return {
        "workload": workload,
        "seed": int(seed),
        "scale": scale,
        "src": str(src),
        "tmp": str(tmp),
        "configs": configs,
        "sweep_h": list(SWEEP_H),
        "probe_sweep_h": list(PROBE_SWEEP_H),
        "draws": draws,
        "cn3d_h": CN3D_H,
        "cn3d_rel_tol": size["cn3d_rel_tol"],
        "cn3d_probe_rel_tol": size["cn3d_probe_rel_tol"],
        "probe_passes": size["probe_passes"],
    }

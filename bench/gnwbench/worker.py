"""The process that runs one workload: rounds, probes and metric assembly.

Untraced (``trace`` 0): the workload's own sections run in whole rounds until
the run's seconds are used, peak RSS is read, then the probe sections run in
interleaved passes.  Traced (``trace`` 1): untraced and traced rounds of the
own sections alternate until the run's seconds are used; the spans of the
traced rounds give the per-layer metrics, the difference of the round times
gives ``trace.overhead_s``, and every CSV and SVG a traced round writes must
match the untraced round's bytes.  Probes are not traced.
"""

import json
import resource
import statistics
import sys
import time

from .inputs import WORKLOADS


def _round_walls(run, seconds) -> list[float]:
    """Sum of the own-section call times of each round, in round order."""
    walls: dict[int, float] = {}
    for call, s in zip(run.calls, seconds):
        if call.round >= 0:
            walls[call.round] = walls.get(call.round, 0.0) + s
    return [walls[r] for r in sorted(walls)]


def _round(run, sections: list):
    run.round += 1
    for section in sections:
        section(run)


def run_workload(spec: dict) -> dict:
    """Run the workload the spec names; returns counts and metrics."""
    sys.path.insert(0, spec["src"])
    from gnwlab.scenario import parse_config

    from .clock import ReferenceClock
    from .sections import SECTIONS, Run

    for path in spec["configs"].values():
        parse_config(path)
    make_up = WORKLOADS[spec["workload"]]
    own = [SECTIONS[name] for name in make_up["own"]]
    clock = ReferenceClock()
    run = Run(spec, clock)
    start = time.perf_counter()
    try:
        if spec["trace"]:
            metrics = _traced(run, own, spec, start)
        else:
            probes = {name: SECTIONS[name] for name in make_up["probes"]}
            with clock:
                metrics = _untraced(run, own, probes, spec, start)
    finally:
        run.close()
    return {"attempted": run.attempted, "failures": run.failures, "metrics": metrics}


def _untraced(run, own, probes, spec, start) -> dict:
    while True:
        _round(run, own)
        if time.perf_counter() - start >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.round = -1
    passes = spec["probe_passes"]
    for i in range(max(passes[name] for name in probes)):
        for name, section in probes.items():
            if i < passes[name]:
                section(run)
    seconds = [run.clock.normalise(c.t0, c.t1, c.seconds) for c in run.calls]
    by_metric: dict[str, list[float]] = {}
    for call, s in zip(run.calls, seconds):
        value = call.work / s if call.metric == "replications" else s
        by_metric.setdefault(call.metric, []).append(value)
    walls = _round_walls(run, seconds)
    draw_ms = [1000.0 * s for s in by_metric["draw"]]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "replications_per_s": statistics.median(by_metric["replications"]),
        "draw_ms": statistics.median(draw_ms),
        "draw_p95_ms": statistics.quantiles(draw_ms, n=20, method="inclusive")[18],
        "rgg_s": statistics.median(by_metric["rgg"]),
        "selftest_s": statistics.median(by_metric["selftest"]),
        "cn3d_s": statistics.median(by_metric["cn3d"]),
        "rounds": len(walls),
    }


def _traced(run, own, spec, start) -> dict:
    """Pairs of an untraced and a traced round of the own sections until the
    run's seconds are used; per-layer figures are per traced round."""
    from .tracing import Tracer

    tracer = Tracer()
    rounds = 0
    while True:
        _round(run, own)
        reference = dict(run.outputs)
        tracer.install()
        try:
            _round(run, own)
        finally:
            tracer.uninstall()
        rounds += 1
        for name, data in sorted(reference.items()):
            run.check(run.outputs[name] == data, f"{name}: traced output differs")
        if time.perf_counter() - start >= spec["seconds"]:
            break
    walls = _round_walls(run, [c.seconds for c in run.calls])
    metrics = tracer.metrics(rounds)
    metrics["trace.overhead_s"] = statistics.median(walls[1::2]) - statistics.median(walls[0::2])
    metrics["rounds"] = rounds
    if spec.get("trace_out"):
        tracer.write(spec["trace_out"])
    return metrics


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_workload(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0

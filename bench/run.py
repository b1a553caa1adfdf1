#!/usr/bin/env python3
"""Benchmark for gnwlab: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_pointwise --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selfcheck [WORKLOAD ...]

A run prints a readable summary and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  gnwlab runs in
child processes that import it from ``src/``.  See bench/README.md.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from gnwbench import inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "replications_per_s": "1/s",
    "draw_ms": "ms",
    "draw_p95_ms": "ms",
    "rgg_s": "s",
    "selftest_s": "s",
    "cn3d_s": "s",
}

PER_LAYER = {
    "scenario.parse_config_s": "s",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "model.density_sample_s": "s",
    "model.density_points": "count",
    "model.edge_probabilities_s": "s",
    "model.edge_probabilities_calls": "count",
    "model.edge_evals": "count",
    "graph.batch_s": "s",
    "graph.batches": "count",
    "graph.rows_drawn": "count",
    "graph.row_use_ratio": "ratio",
    "graph.sample_neighborhood_s": "s",
    "graph.sample_full_graph_s": "s",
    "graph.edges": "count",
    "graph.edge_list_s": "s",
    "graph.decoupling_selftest_s": "s",
    "estimators.predict_rows_s": "s",
    "estimators.predict_rows_calls": "count",
    "estimators.rows": "count",
    "montecarlo.run_replications_s": "s",
    "montecarlo.estimate_integrated_risk_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.replications": "count",
    "quadrature.integrate_box_s": "s",
    "quadrature.calls": "count",
    "quadrature.evaluations": "count",
    "quadrature.evals_per_s": "1/s",
    "theory.local_connection_calls": "count",
    "theory.smoothed_value_calls": "count",
    "theory.self_s": "s",
    "figures.rgg_svg_s": "s",
    "figures.svg_bytes": "bytes",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
SELFCHECK_SEED = 7


def _setup_probe(spec_path: str) -> int:
    """Child mode: import gnwlab and parse the run's configs, nothing else."""
    sys.path.insert(0, str(SRC))
    import gnwlab  # noqa: F401
    import gnwlab.cli  # noqa: F401
    from gnwlab.scenario import parse_config

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for path in spec["configs"].values():
        parse_config(path)
    return 0


def _child(args: list[str], deadline: float) -> float:
    """Run this script in a fresh interpreter; returns its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return time.perf_counter() - t0


def _setup_seconds(spec_path: Path, deadline: float) -> float:
    """One set-up probe, normalised by reference bursts just before and after."""
    from gnwbench.clock import bracket

    return bracket(_child, ["--setup-probe", str(spec_path)], deadline)[1]


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Generate the inputs, time set-up, run the workload in a child process."""
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        spec = inputs.generate(workload, seed, "full", tmp, SRC)
        spec.update(seconds=seconds, trace=trace)
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spec["trace_out"] = str(out_dir / f"trace-{workload}.csv.gz")
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup = [] if trace else [
            _setup_seconds(spec_path, deadline) for _ in range(SETUP_PROBES)]
        result_path = tmp / "result.json"
        _child(["--worker", str(spec_path), str(result_path)], deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the summary lines and return the final JSON object."""
    units = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    failures = result["failures"]
    for what in failures[:20]:
        print(f"FAILED: {what}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={trace} rounds={metrics.get('rounds')}: "
          f"{result['attempted']} operations attempted, {len(failures)} failed")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def selfcheck(workloads: list[str]) -> int:
    """Reduced-size pass, in this process, over the named workloads.

    Each workload makes a traced run (one untraced and one traced round of
    its own sections: every check plus the traced-output byte comparison);
    the first one also makes an untraced run with its probes, as a measured
    run does.  Then the
    sweep CSV is compared across thread counts, and BENCHMARK.json against
    the metric tables here.
    """
    sys.path.insert(0, str(SRC))
    from gnwbench.worker import run_workload

    problems = []
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        for i, workload in enumerate(workloads):
            for trace in (1, 0) if i == 0 else (1,):
                spec = inputs.generate(workload, SELFCHECK_SEED, "small", tmp, SRC)
                spec.update(seconds=0, trace=trace)
                result = run_workload(spec)
                names = PER_LAYER if trace else [k for k in END_TO_END if k != "setup_s"]
                metrics = result["metrics"]
                print(f"{workload} trace={trace}: {result['attempted']} operations attempted, "
                      f"{len(result['failures'])} failed")
                problems += [f"{workload}: {what}" for what in result["failures"]]
                bad = [k for k in names if not (
                    k in metrics and math.isfinite(metrics[k]) and (trace or metrics[k] > 0))]
                if bad:
                    problems.append(f"{workload} trace={trace}: bad metrics {bad}")
        problems += _thread_invariance(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems += _check_benchmark_json()
    for what in problems:
        print(f"SELFCHECK: {what}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _thread_invariance(tmp: Path) -> list[str]:
    """The sweep CSV must not depend on the worker-thread count."""
    import gnwlab.cli

    spec = inputs.generate("mc_sweep", SELFCHECK_SEED, "small", tmp, SRC)
    outputs = []
    for threads in ("1", "2"):
        out = tmp / f"sweep-threads{threads}.csv"
        code = gnwlab.cli.main([
            "sweep", "--config", spec["configs"]["sweep"], "--parameter", "h",
            "--values", ",".join(map(repr, spec["sweep_h"])), "--threads", threads,
            "--seed", str(SELFCHECK_SEED), "--out", str(out)])
        outputs.append((code, out.read_bytes() if out.exists() else b""))
    if outputs[0][0] != 0 or not outputs[0][1] or outputs[0] != outputs[1]:
        return ["sweep CSV differs between --threads 1 and --threads 2"]
    return []


def _check_benchmark_json() -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    declared = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(inputs.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/gnwbench/inputs.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        from gnwbench.worker import main as worker_main

        return worker_main(argv[1], argv[2])
    if argv[:1] == ["--setup-probe"]:
        return _setup_probe(argv[1])

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", nargs="*", metavar="WORKLOAD",
                        choices=sorted(inputs.WORKLOADS),
                        help="reduced-size pass over the named workloads (default: all)")
    args = parser.parse_args(argv)
    if not (SRC / "gnwlab" / "__init__.py").is_file():
        print(f"error: no gnwlab sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.selfcheck is not None:
        return selfcheck(args.selfcheck or list(inputs.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         time.monotonic() + RUN_LIMIT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

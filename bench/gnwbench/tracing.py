"""Spans recorded around gnwlab's layer boundaries, from outside the package.

``Tracer.install`` replaces each boundary function with a wrapper on the
module or class where its callers look it up, and ``uninstall`` puts the
originals back.  A span holds a name, start, end, parent span and thread, plus
one count read from the call's arguments or result.  Spans stay in memory
until the run ends; ``metrics`` then derives the per-layer figures and
``write`` saves the spans.

Work that gnwlab hands to its thread pool opens spans on a worker thread with
an empty stack; their parent is the span open on the main thread at that
moment, which is the call waiting for the pool.
"""

import functools
import gzip
import importlib
import itertools
import os
import threading
import time
from array import array

import numpy as np


def _points(args, result):
    return result.size // result.shape[-1]


def _size(args, result):
    return result.size


def _rows(args, result):
    return args[0].rows


def _predicted_rows(args, result):
    return result[0].shape[0]


def _length(args, result):
    return len(result)


def _replications(args, result):
    return result.replications


def _evaluations(args, result):
    return result.evaluations


def _output_bytes(args, result):
    argv = list(args[0])
    return os.path.getsize(argv[argv.index("--out") + 1])


# (module, class or None, attribute, span name, count)
BOUNDARIES = [
    ("gnwlab.cli", None, "main", "cli.main", _output_bytes),
    ("gnwlab.cli", None, "parse_config", "scenario.parse_config", None),
    ("gnwlab.rng", None, "stream", "rng.stream", None),
    ("gnwlab.model", "UniformCube", "sample", "model.density_sample", _points),
    ("gnwlab.model", "UniformBall", "sample", "model.density_sample", _points),
    ("gnwlab.model", "GaussianDensity", "sample", "model.density_sample", _points),
    ("gnwlab.model", "MixtureDensity", "sample", "model.density_sample", _points),
    ("gnwlab.model", "KernelSpec", "edge_probabilities", "model.edge_probabilities", _size),
    ("gnwlab.graph", "NeighborhoodSampler", "batch", "graph.batch", _rows),
    ("gnwlab.graph", None, "sample_neighborhood", "graph.sample_neighborhood", None),
    ("gnwlab.cli", None, "sample_full_graph", "graph.sample_full_graph", None),
    ("gnwlab.graph", "FullGraph", "edge_list", "graph.edge_list", _length),
    ("gnwlab.cli", None, "decoupling_selftest", "graph.decoupling_selftest", None),
    ("gnwlab.montecarlo", None, "predict_rows", "estimators.predict_rows", _predicted_rows),
    ("gnwlab.estimators", None, "predict_rows", "estimators.predict_rows", _predicted_rows),
    ("gnwlab.estimators", None, "gnw_predict", "estimators.gnw_predict", None),
    ("gnwlab.estimators", None, "nw_predict", "estimators.nw_predict", None),
    ("gnwlab.cli", None, "run_replications", "montecarlo.run_replications", _length),
    ("gnwlab.cli", None, "estimate_integrated_risk", "montecarlo.estimate_integrated_risk",
     _replications),
    ("gnwlab.cli", None, "estimate_moments", "montecarlo.estimate_moments", None),
    ("gnwlab.theory", None, "integrate_box", "quadrature.integrate_box", _evaluations),
    ("gnwlab.theory", None, "local_connection", "theory.local_connection", None),
    ("gnwlab.theory", None, "operator_value", "theory.operator_value", None),
    ("gnwlab.theory", None, "smoothed_value", "theory.smoothed_value", None),
    ("gnwlab.montecarlo", None, "smoothed_value", "theory.smoothed_value", None),
    ("gnwlab.theory", None, "expectation_gnw", "theory.expectation_gnw", None),
    ("gnwlab.theory", None, "degree_ratio_check", "theory.degree_ratio_check", None),
    ("gnwlab.theory", None, "lebesgue_ratio_bracket", "theory.lebesgue_ratio_bracket", None),
    ("gnwlab.theory", None, "bias_uniform_bound", "theory.bias_uniform_bound", None),
    ("gnwlab.theory", None, "degree_lower_bound", "theory.degree_lower_bound", None),
    ("gnwlab.theory", None, "variance_upper_bound", "theory.variance_upper_bound", None),
    ("gnwlab.theory", None, "pointwise_risk_bound", "theory.pointwise_risk_bound", None),
    ("gnwlab.cli", None, "rgg_svg", "figures.rgg_svg", _length),
]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        # one row per closed span
        self._sid = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._thread = array("q")
        self._count = array("q")

    # -- recording ---------------------------------------------------------

    def _wrap(self, original, name: str, count):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self._names):
            self._names.append(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and ident != tracer._main else -1
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = count(args, result) if count is not None and result is not None else 0
                tracer._record(sid, name_id, t0, t1, parent, ident, n)

        return traced

    def _record(self, sid, name_id, t0, t1, parent, ident, n):
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            self._sid.append(sid)
            self._name.append(name_id)
            self._start.append(t0)
            self._end.append(t1)
            self._parent.append(parent)
            self._thread.append(thread)
            self._count.append(n)

    def install(self):
        for module_name, class_name, attr, name, count in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                original = vars(owner)[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def _table(self):
        sid = np.frombuffer(self._sid, dtype=np.int64)
        order = np.argsort(sid)
        return {
            "sid": sid[order],
            "name": np.frombuffer(self._name, dtype=np.int64)[order],
            "start": np.frombuffer(self._start, dtype=np.float64)[order],
            "end": np.frombuffer(self._end, dtype=np.float64)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "count": np.frombuffer(self._count, dtype=np.int64)[order],
        }

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures over ``rounds`` traced rounds, per round."""
        t = self._table()
        names = np.array(self._names, dtype=object)[t["name"]]
        dur = t["end"] - t["start"]
        index = {int(s): i for i, s in enumerate(t["sid"])}

        # Self time: a span's duration less the union of its children's
        # intervals (children on pool threads overlap each other).
        children: dict[int, list[int]] = {}
        for i, p in enumerate(t["parent"].tolist()):
            if p >= 0 and p in index:
                children.setdefault(index[p], []).append(i)
        self_time = dur.copy()
        has_rng_child = np.zeros(len(dur), dtype=bool)
        for i, kids in children.items():
            lo, hi = t["start"][i], t["end"][i]
            spans = sorted((max(lo, t["start"][k]), min(hi, t["end"][k])) for k in kids)
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in spans:
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            self_time[i] -= covered
            has_rng_child[i] = any(names[k] == "rng.stream" for k in kids)

        def of(name):
            return names == name

        def layer(prefix):
            return np.array([n.startswith(prefix) for n in names], dtype=bool)

        def total(mask, values=dur):
            return float(np.sum(values[mask]))

        ones = np.ones(len(dur))
        drawn = of("graph.batch") & has_rng_child
        rows_drawn = total(drawn, t["count"])
        mc = of("montecarlo.run_replications") | of("montecarlo.estimate_integrated_risk")
        served = total(mc, t["count"]) + total(of("graph.sample_neighborhood"), ones)
        quad_s = total(of("quadrature.integrate_box"))
        quad_evals = total(of("quadrature.integrate_box"), t["count"])
        out = {
            "rng.streams": total(of("rng.stream"), ones),
            "rng.stream_s": total(of("rng.stream")),
            "model.density_sample_s": total(of("model.density_sample")),
            "model.density_points": total(of("model.density_sample"), t["count"]),
            "model.edge_probabilities_s": total(of("model.edge_probabilities")),
            "model.edge_probabilities_calls": total(of("model.edge_probabilities"), ones),
            "model.edge_evals": total(of("model.edge_probabilities"), t["count"]),
            "graph.batch_s": total(of("graph.batch")),
            "graph.batches": total(drawn, ones),
            "graph.rows_drawn": rows_drawn,
            "graph.sample_neighborhood_s": total(of("graph.sample_neighborhood")),
            "graph.sample_full_graph_s": total(of("graph.sample_full_graph")),
            "graph.edges": total(of("graph.edge_list"), t["count"]),
            "graph.edge_list_s": total(of("graph.edge_list")),
            "graph.decoupling_selftest_s": total(of("graph.decoupling_selftest")),
            "estimators.predict_rows_s": total(of("estimators.predict_rows")),
            "estimators.predict_rows_calls": total(of("estimators.predict_rows"), ones),
            "estimators.rows": total(of("estimators.predict_rows"), t["count"]),
            "montecarlo.run_replications_s": total(of("montecarlo.run_replications")),
            "montecarlo.estimate_integrated_risk_s":
                total(of("montecarlo.estimate_integrated_risk")),
            "montecarlo.self_s": total(layer("montecarlo."), self_time),
            "montecarlo.replications": total(mc, t["count"]),
            "quadrature.integrate_box_s": quad_s,
            "quadrature.calls": total(of("quadrature.integrate_box"), ones),
            "quadrature.evaluations": quad_evals,
            "theory.local_connection_calls": total(of("theory.local_connection"), ones),
            "theory.smoothed_value_calls": total(of("theory.smoothed_value"), ones),
            "theory.self_s": total(layer("theory."), self_time),
            "figures.rgg_svg_s": total(of("figures.rgg_svg")),
            "figures.svg_bytes": total(of("figures.rgg_svg"), t["count"]),
            "scenario.parse_config_s": total(of("scenario.parse_config")),
            "cli.self_s": total(of("cli.main"), self_time),
            "cli.output_bytes": total(of("cli.main"), t["count"]),
        }
        out = {k: v / rounds for k, v in out.items()}
        # Ratios are taken on the totals.
        out["graph.row_use_ratio"] = served / rows_drawn if rows_drawn else 0.0
        out["quadrature.evals_per_s"] = quad_evals / quad_s if quad_s else 0.0
        return out

    def write(self, path: str):
        """Save every span as gzip'd CSV: id,name,start_s,end_s,parent,thread,count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,thread,count\n")
            for row in zip(self._sid, self._name, self._start, self._end, self._parent,
                           self._thread, self._count):
                sid, name, t0, t1, parent, thread, count = row
                fh.write(f"{sid},{self._names[name]},{t0:.9f},{t1:.9f},{parent},{thread},"
                         f"{count}\n")

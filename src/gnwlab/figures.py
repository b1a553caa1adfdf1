"""Dependency-free SVG emission for the two reference figures.

Figures are written directly as SVG text with fixed formatting so a given
scenario and seed always produce byte-identical files: an 800x800 viewBox,
radius-2 circles for points, 0.5-width segments for edges.
"""

import numpy as np

from . import rng as rngmod
from .errors import InvalidInputError
from .estimators import predict_rows
from .graph import FullGraph, check_float_budget

__all__ = ["rgg_svg", "tradeoff_svg"]

_SIZE = 800.0
_MARGIN = 40.0
# Points of the tradeoff figure's evaluation grid.
_GRID_POINTS = 257


def _scale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return _MARGIN + (values - lo) / span * (_SIZE - 2.0 * _MARGIN)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _document(body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">\n'
        f'<rect x="0" y="0" width="{int(_SIZE)}" height="{int(_SIZE)}" '
        'fill="white" stroke="black" stroke-width="1"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def rgg_svg(graph: FullGraph) -> str:
    """Scatter of latent points with one line segment per edge."""
    pts = graph.points
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
    elif pts.shape[1] > 2:
        pts = pts[:, :2]
    x = _scale(pts[:, 0], float(pts[:, 0].min()), float(pts[:, 0].max()))
    y = _SIZE - _scale(pts[:, 1], float(pts[:, 1].min()), float(pts[:, 1].max()))
    xs = [_fmt(v) for v in x]
    ys = [_fmt(v) for v in y]
    body = [
        f'<line x1="{xs[i]}" y1="{ys[i]}" x2="{xs[j]}" y2="{ys[j]}" '
        'stroke="#808080" stroke-width="0.5"/>'
        for i, j in graph.edge_list()
    ]
    body.extend(f'<circle cx="{a}" cy="{b}" r="2" fill="black"/>' for a, b in zip(xs, ys))
    return _document(body)


def tradeoff_svg(config) -> str:
    """One sampled dataset, the true function and the estimator curve (d = 1).

    The dataset is drawn the way ``sample_full_graph`` draws its nodes: n
    latents from ``stream(seed, LATENT, 0)``, one edge uniform per node from
    ``stream(seed, EDGE, 0)`` and the label noise from
    ``stream(seed, NOISE, 0)``.  The estimator curve evaluates the graph
    prediction at each of ``_GRID_POINTS`` grid points against the same
    latents and the same edge uniforms, so the curve shows pure bandwidth
    behavior rather than re-sampling noise.
    """
    if config.dimension != 1:
        raise InvalidInputError("tradeoff figures require a one-dimensional scenario")
    n, seed = config.n, config.master_seed
    # points, uniforms, noise and labels, plus two rows per grid point at
    # the peak: the edges and predict_rows' product
    check_float_budget(n * (2 * _GRID_POINTS + 4), "a tradeoff figure of %d nodes", n)
    pts = config.density.sample(rngmod.stream(seed, rngmod.LATENT, 0), (n,))
    u = rngmod.stream(seed, rngmod.EDGE, 0).random(n)
    y = config.regression.evaluate(pts) + config.noise.sample(
        rngmod.stream(seed, rngmod.NOISE, 0), (n,))

    lo, hi = config.density.bounding_box()
    gx = np.linspace(float(lo[0]), float(hi[0]), _GRID_POINTS)
    f_true = config.regression.evaluate(gx[:, None])

    # One grid row at a time, so the kernel's temporaries stay n long.
    edges = np.empty((_GRID_POINTS, n))
    for row, g in zip(edges, gx):
        np.less(u, config.kernel.edge_probabilities(g, pts), out=row)
    est, _ = predict_rows(np.broadcast_to(y, edges.shape), edges)

    y_all = np.concatenate([y, f_true, est])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    sx = _scale(gx, float(lo[0]), float(hi[0]))
    px = _scale(pts[:, 0], float(lo[0]), float(hi[0]))

    def sy(vals):
        return _SIZE - _scale(np.asarray(vals), y_lo, y_hi)

    body = []
    for xx, yy in zip(px, sy(y)):
        body.append(f'<circle cx="{_fmt(xx)}" cy="{_fmt(yy)}" r="2" fill="#b0b0b0"/>')
    truth = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(sx, sy(f_true)))
    body.append(f'<polyline points="{truth}" fill="none" stroke="#1060c0" stroke-width="1.5"/>')
    curve = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(sx, sy(est)))
    body.append(f'<polyline points="{curve}" fill="none" stroke="#c03020" stroke-width="1.5"/>')
    return _document(body)

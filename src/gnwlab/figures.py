"""Dependency-free SVG emission for the two reference figures.

Figures are written directly as SVG text with fixed formatting so a given
scenario and seed always produce byte-identical files: an 800x800 viewBox,
radius-2 circles for points, 0.5-width segments for edges.
"""

import numpy as np

from .errors import InvalidInputError
from .estimators import predict_rows
from .graph import FullGraph, NeighborhoodSampler

__all__ = ["rgg_svg", "tradeoff_svg"]

_SIZE = 800.0
_MARGIN = 40.0


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
    body = []
    for i, j in graph.edge_list():
        body.append(
            f'<line x1="{_fmt(x[i])}" y1="{_fmt(y[i])}" x2="{_fmt(x[j])}" y2="{_fmt(y[j])}" '
            'stroke="#808080" stroke-width="0.5"/>'
        )
    for k in range(len(x)):
        body.append(f'<circle cx="{_fmt(x[k])}" cy="{_fmt(y[k])}" r="2" fill="black"/>')
    return _document(body)


def tradeoff_svg(config, grid_points: int = 257) -> str:
    """One sampled dataset, the true function and the estimator curve (d = 1).

    The estimator curve evaluates the graph prediction at each grid point
    against the same latent draw and the same edge uniforms, so the curve
    shows pure bandwidth behavior rather than re-sampling noise.
    """
    if config.dimension != 1:
        raise InvalidInputError("tradeoff figures require a one-dimensional scenario")
    sampler = NeighborhoodSampler(
        config.density, config.kernel, config.regression, config.noise,
        config.n, config.master_seed,
    )
    pts, unif, labels = sampler.batch(0, stop=1)
    pts1 = pts[0, :, 0]
    u = unif[0]
    y = labels[0]

    lo, hi = config.density.bounding_box()
    gx = np.linspace(float(lo[0]), float(hi[0]), grid_points)
    f_true = config.regression.evaluate(gx[:, None])

    edges = sampler.edges(gx[:, None, None], pts[0][None, :, :], u)
    est, _ = predict_rows(np.broadcast_to(y, edges.shape), edges)

    y_all = np.concatenate([y, f_true, est])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    sx = _scale(gx, float(lo[0]), float(hi[0]))
    px = _scale(pts1, float(lo[0]), float(hi[0]))

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

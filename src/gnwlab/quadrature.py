"""Adaptive numerical integration with an explicit error budget.

The theory layer treats its integrals as exact, so every integration here
reports its own error estimate alongside the value.  The workhorse is an
adaptive Gauss-Legendre scheme (nested 7/15-point panels, worst-panel-first
refinement) that accepts breakpoints -- kernel kink radii, support faces,
regression cusps -- so panels never straddle a known non-smooth point.

The 1-d rule runs many independent integrals ("lanes") in lockstep.  Each
lane keeps its own breakpoints, panels, running totals, stopping test and
panel budget, and refines its worst panel (the oldest one on a tie) once per
sweep; a sweep evaluates the new panels of every lane still refining in one
integrand call.  Every lane therefore takes exactly the steps it would take
alone, and its value, error and evaluation count do not depend on which
lanes share its sweeps.  ``adaptive_interval`` is the one-lane case.

Dimensions 2 and 3 iterate the rule, axis 0 outermost: the nodes of every
panel on one axis become the lanes of the next axis, so one integrand call
serves a whole sweep of a whole level.  Lanes are processed in groups of
``_LANE_GROUP`` per call to the rule, which bounds the points held at once
without changing any value: the integrand is evaluated point by point.
Above 3 dimensions a Halton sequence with a block jackknife error estimate
takes over.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadResult", "adaptive_interval", "integrate_box"]


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    evaluations: int


_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_X7, _X15])  # one panel's evaluation points: GL7, then GL15
_PANEL_EVALS = _NODES.size

# Lanes integrated together in one pass of the rule; bounds the size of one
# integrand call.
_LANE_GROUP = 64


def _panels(g, lane: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Values and GL7-vs-GL15 error estimates of panels [lo, hi] of the given lanes.

    Each panel is reduced with its own ``np.dot``: a batched matrix product
    sums in another order and changes the last bits.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    ts = (mid[:, None] + half[:, None] * _NODES).ravel()
    vals = np.asarray(g(np.repeat(lane, _PANEL_EVALS), ts), dtype=float).reshape(-1, _PANEL_EVALS)
    count = vals.shape[0]
    v7 = half * np.fromiter(map(_W7.dot, vals[:, :7]), float, count)
    v15 = half * np.fromiter(map(_W15.dot, vals[:, 7:]), float, count)
    return v15, np.abs(v15 - v7)


def _edges(lo: float, hi: float, cuts: np.ndarray) -> np.ndarray:
    """Per-lane sorted panel edges: lo, the distinct cuts inside (lo, hi), hi, NaN padding."""
    inside = np.where((cuts > lo) & (cuts < hi), cuts, np.nan)
    ends = np.full(len(cuts), lo), np.full(len(cuts), hi)
    rows = np.sort(np.column_stack([ends[0], inside, ends[1]]), axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.nan
    return np.sort(rows, axis=1)


def _fsum_rows(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """math.fsum of each row's kept entries."""
    flat = values[keep].tolist()
    out = np.empty(len(values))
    start = 0
    for i, count in enumerate(keep.sum(axis=1).tolist()):
        out[i] = math.fsum(flat[start:start + count])
        start += count
    return out


def _lane_group(g, lanes, lo, hi, cuts, rel_tol, abs_tol, max_panels):
    """Run the adaptive rule on one group of lanes; returns (values, errors, evaluations)."""
    edges = _edges(lo, hi, cuts)
    has = ~np.isnan(edges[:, 1:])
    row, col = np.nonzero(has)
    a0, b0 = edges[:, :-1][has], edges[:, 1:][has]
    v0, e0 = _panels(g, lanes[row], a0, b0)
    evals = _PANEL_EVALS * row.size

    # panels[lane, slot] = (lo, hi, value, error), slots in creation order so
    # that the first maximum of an error row is the oldest of the worst
    # panels.  Popped and unused slots have error -inf.
    size, width = has.shape
    panels = np.zeros((size, 2 * width + 6, 4))
    panels[:, :, 3] = -np.inf
    panels[row, col] = np.column_stack([a0, b0, v0, e0])
    # sums[lane] = (value, L1 mass, error), each added panel by panel in the
    # lane's own order; the L1 mass is the roundoff floor under cancellation.
    first = np.zeros((size, width, 3))
    first[row, col] = np.column_stack([v0, np.abs(v0), e0])
    sums = np.zeros((size, 3))
    for j in range(width):
        sums += first[:, j]
    count = has.sum(axis=1)  # live panels
    used = count.copy()  # slots taken
    idx = np.arange(size)  # group rows of the lanes still refining

    value = np.empty(size)
    error = np.empty(size)
    while True:
        total, total_abs, total_err = sums.T
        target = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)), 1e-15 * total_abs)
        met = total_err <= target
        finite = np.isfinite(total) & np.isfinite(total_err)
        stop = (count >= max_panels) | met | ~finite
        if stop.any():
            # Written as ~(met & finite): a NaN error compares False.
            failed = np.flatnonzero(stop & ~(met & finite))
            if failed.size:
                k = failed[0]
                why = (f"error {total_err[k]:.3e} above target" if finite[k]
                       else f"non-finite value {total[k]} (error {total_err[k]})")
                raise QuadratureError(f"interval [{lo}, {hi}]: {why} after {count[k]} panels")
            done = panels[stop]
            live = done[:, :, 3] != -np.inf
            value[idx[stop]] = _fsum_rows(done[:, :, 2], live)
            error[idx[stop]] = _fsum_rows(done[:, :, 3], live)
            keep = ~stop
            if not keep.any():
                return value, error, evals
            idx, panels, sums, count, used = (
                arr[keep] for arr in (idx, panels, sums, count, used)
            )

        # Pop each lane's worst panel.
        r = np.arange(idx.size)
        j = panels[:, :, 3].argmax(axis=1)
        a, b, v, e = panels[r, j].T
        panels[r, j, 3] = -np.inf
        sums -= np.column_stack([v, np.abs(v), e])
        if used.max() + 2 > panels.shape[1]:
            pad = np.zeros((idx.size, panels.shape[1], 4))
            pad[:, :, 3] = -np.inf
            panels = np.concatenate([panels, pad], axis=1)

        mid = 0.5 * (a + b)
        split = (mid > a) & (mid < b)
        # A panel at float resolution goes back unchanged, as the newest,
        # with no error left to refine.
        flat = np.flatnonzero(~split)
        if flat.size:
            panels[flat, used[flat]] = np.column_stack(
                [a[flat], b[flat], v[flat], np.zeros(flat.size)]
            )
            used[flat] += 1
            sums[flat, :2] += np.column_stack([v[flat], np.abs(v[flat])])

        rs = np.flatnonzero(split)
        if rs.size:
            # Both halves of every split panel in one integrand call: the
            # lower halves first, then the upper ones.
            lows = np.concatenate([a[rs], mid[rs]])
            highs = np.concatenate([mid[rs], b[rs]])
            vv, ee = _panels(g, np.tile(lanes[idx[rs]], 2), lows, highs)
            evals += 2 * _PANEL_EVALS * rs.size
            slots = np.concatenate([used[rs], used[rs] + 1])
            panels[np.tile(rs, 2), slots] = np.column_stack([lows, highs, vv, ee])
            added = np.column_stack([vv, np.abs(vv), ee])
            sums[rs] += added[:rs.size]
            sums[rs] += added[rs.size:]
            used[rs] += 2
            count[rs] += 1


def _adaptive_lanes(g, lo, hi, cuts, *, rel_tol, abs_tol, max_panels):
    """Integrate every lane over [lo, hi], ``_LANE_GROUP`` lanes at a time.

    ``cuts[i]`` holds lane i's breakpoints (NaN for none); ``g(lane, t)``
    evaluates lane ``lane[k]``'s integrand at ``t[k]``.  Returns the values
    and error estimates per lane and the total evaluation count.  Raises
    QuadratureError when a lane exhausts ``max_panels`` above its target, or
    as soon as a lane's total or error estimate is not finite.
    """
    m = len(cuts)
    value = np.empty(m)
    error = np.empty(m)
    evals = 0
    for start in range(0, m, _LANE_GROUP):
        lanes = np.arange(start, min(start + _LANE_GROUP, m))
        value[lanes], error[lanes], n = _lane_group(
            g, lanes, lo, hi, cuts[lanes], rel_tol, abs_tol, max_panels
        )
        evals += n
    return value, error, evals


def adaptive_interval(
    f,
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    breakpoints=(),
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate a vectorised scalar function over [lo, hi].

    ``breakpoints`` are interior points where f may be non-smooth; the
    initial panel set splits there.  Raises QuadratureError if the panel
    budget is exhausted before the error target is met.
    """
    if hi <= lo:
        return QuadResult(0.0, 0.0, 0)
    cuts = np.array([[float(p) for p in breakpoints]]).reshape(1, -1)
    value, error, evals = _adaptive_lanes(
        lambda lane, ts: f(ts), lo, hi, cuts,
        rel_tol=rel_tol, abs_tol=abs_tol, max_panels=max_panels,
    )
    return QuadResult(float(value[0]), float(error[0]), evals)


def _axis_cuts(planes, spheres, axis: int, fixed: np.ndarray) -> np.ndarray:
    """Breakpoints on ``axis`` for each row of earlier-axis coordinates ``fixed``.

    A sphere crosses the line where its squared radius exceeds the squared
    distance of the fixed coordinates; NaN marks no crossing.  The squares
    go through pow(), not x*x, because they define the cuts exactly: the
    two round differently in about 1 case in 1000.
    """
    m = len(fixed)
    cols = [np.full(m, float(p)) for p in planes]
    for center, radius in spheres:
        center = np.atleast_1d(center)
        dist2 = np.zeros(m)
        for k in range(axis):
            diff = (fixed[:, k] - center[k]).tolist()
            dist2 += np.fromiter(map(math.pow, diff, repeat(2.0)), float, m)
        slack = radius * radius - dist2
        root = np.sqrt(np.where(slack < 0.0, np.nan, slack))
        cols.extend([center[axis] - root, center[axis] + root])
    return np.column_stack(cols) if cols else np.empty((m, 0))


def integrate_box(
    f,
    lo,
    hi,
    *,
    rel_tol: float = 1e-8,
    planes: list[list[float]] | None = None,
    spheres: list[tuple[np.ndarray, float]] | None = None,
    max_panels: int = 4096,
) -> QuadResult:
    """Integrate f over an axis-aligned box.

    ``f`` maps an (m, d) array of points to an (m,) array.  ``planes[k]``
    holds axis-k breakpoint coordinates; ``spheres`` holds (center, radius)
    surfaces whose axis crossings are computed level by level.  Dimensions
    above 3 use a deterministic Halton rule with a jackknife error bar.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = lo.shape[0]
    if np.any(hi <= lo):
        return QuadResult(0.0, 0.0, 0)
    planes = planes if planes is not None else [[] for _ in range(d)]
    spheres = spheres or []

    if d == 1:
        return adaptive_interval(
            lambda ts: f(ts[:, None]), lo[0], hi[0], rel_tol=rel_tol,
            breakpoints=_axis_cuts(planes[0], spheres, 0, np.empty((1, 0)))[0],
            max_panels=max_panels,
        )

    if d > 3:
        return _halton_box(f, lo, hi)

    # Iterated rule: axis 0 outermost.  Inner tolerances are tightened so the
    # inner estimates look smooth to the outer rule; the reported error adds
    # the worst inner error scaled by the outer measure.
    inner_tols = {1: rel_tol, 2: rel_tol, 3: rel_tol * 0.1}
    state = {"evals": 0, "inner_err": 0.0}

    def level(axis: int, fixed: np.ndarray) -> np.ndarray:
        """Integrals over axes >= ``axis``, one per row of fixed earlier coordinates."""
        cuts = _axis_cuts(planes[axis], spheres, axis, fixed)
        if axis == d - 1:

            def g(lane, ts):
                pts = np.empty((ts.shape[0], d))
                pts[:, :axis] = fixed[lane]
                pts[:, axis] = ts
                return f(pts)

            value, error, evals = _adaptive_lanes(
                g, lo[axis], hi[axis], cuts, rel_tol=inner_tols[d], abs_tol=1e-300,
                max_panels=max_panels,
            )
            state["evals"] += evals
            state["inner_err"] = max(state["inner_err"], float(error.max()))
            return value

        def g(lane, ts):
            return level(axis + 1, np.column_stack([fixed[lane], ts]))

        value, error, evals = _adaptive_lanes(
            g, lo[axis], hi[axis], cuts,
            rel_tol=rel_tol if axis == 0 else inner_tols[d], abs_tol=0.0,
            max_panels=512 if axis == 0 else 256,
        )
        state["evals"] += evals
        if axis == 0:
            state["outer_err"] = float(error[0])
        return value

    value = float(level(0, np.empty((1, 0)))[0])
    widths = hi - lo
    inner_measure = float(np.prod(widths[:-1]))
    error = state["outer_err"] + state["inner_err"] * inner_measure
    return QuadResult(value, error, state["evals"])


def _halton_box(f, lo: np.ndarray, hi: np.ndarray, n_points: int = 1 << 16) -> QuadResult:
    from scipy.stats import qmc  # costs about 0.3 s to import; only d > 3 needs it

    d = lo.shape[0]
    sampler = qmc.Halton(d=d, scramble=False)
    u = sampler.random(n_points)
    pts = lo + u * (hi - lo)
    vals = f(pts)
    vol = float(np.prod(hi - lo))
    value = vol * float(np.mean(vals))

    blocks = 16
    block_means = vals.reshape(blocks, -1).mean(axis=1)
    jack = np.array([
        (np.sum(block_means) - block_means[i]) / (blocks - 1) for i in range(blocks)
    ])
    err = vol * float(np.sqrt((blocks - 1) / blocks * np.sum((jack - np.mean(jack)) ** 2)))
    return QuadResult(value, err, n_points)

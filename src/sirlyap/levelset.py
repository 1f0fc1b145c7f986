"""Level-contour extraction on coordinate planes of the deviation space.

Marching squares on an evaluated grid, with each vertex placed by bisection
along the grid edge it crosses, so that every emitted vertex satisfies
|V(v) - level| <= 1e-3*(1 + level) even where the function has kinks inside a
cell.  Kinks are preserved: vertices stay on grid edges and no smoothing is
applied.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .lyap_df import DfLyapParams
from .model import ModelParams

CONTOUR_TOL = 1e-3

#: segments per marching-squares case, as pairs of cell edge names
_CASES = {
    0: [], 15: [],
    1: [("L", "B")], 14: [("L", "B")],
    2: [("B", "R")], 13: [("B", "R")],
    3: [("L", "R")], 12: [("L", "R")],
    4: [("R", "T")], 11: [("R", "T")],
    6: [("B", "T")], 9: [("B", "T")],
    7: [("L", "T")], 8: [("L", "T")],
}


@dataclass
class Contour:
    """One level's polylines in the plane's free coordinates."""

    level: float
    plane: tuple  # (fixed axis name, value), e.g. ("x3t", 0.0)
    polylines: list = field(default_factory=list)
    marker: Optional[tuple] = None  # degenerate level: a single point

    def max_residual(self, value_at) -> float:
        worst = 0.0
        for poly in self.polylines:
            v = value_at(poly)
            worst = max(worst, float(np.abs(v - self.level).max()))
        return worst


def _plane_embedding(plane):
    axis, c = plane
    if axis == "x3t":
        return lambda UV: np.column_stack([UV[:, 0], UV[:, 1], np.full(len(UV), c)])
    if axis == "x2t":
        return lambda UV: np.column_stack([UV[:, 0], np.full(len(UV), c), UV[:, 1]])
    raise ValueError("plane axis must be 'x2t' or 'x3t'")


def _cell_edges(iy, ix):
    return {"B": ("h", iy, ix), "T": ("h", iy + 1, ix),
            "L": ("v", iy, ix), "R": ("v", iy, ix + 1)}


def _march(Z, level):
    """Segments of the level contour as pairs of edge ids ("h" or "v", iy, ix);
    the two ends of every such edge lie on opposite sides of the level."""
    s = Z - level
    finite = np.isfinite(Z)
    pos = np.where(finite, s > 0.0, False)
    c00 = pos[:-1, :-1]
    c10 = pos[:-1, 1:]
    c11 = pos[1:, 1:]
    c01 = pos[1:, :-1]
    ok = finite[:-1, :-1] & finite[:-1, 1:] & finite[1:, 1:] & finite[1:, :-1]
    case = (c00.astype(np.int8) + 2 * c10.astype(np.int8)
            + 4 * c11.astype(np.int8) + 8 * c01.astype(np.int8))
    cells = np.argwhere(ok & (case != 0) & (case != 15))
    segments = []
    for iy, ix in cells:
        cs = int(case[iy, ix])
        if cs in (5, 10):
            center = 0.25 * (s[iy, ix] + s[iy, ix + 1] + s[iy + 1, ix] + s[iy + 1, ix + 1])
            joined = (center > 0.0) == (cs == 5)
            pairs = [("L", "B"), ("R", "T")] if joined else [("L", "T"), ("B", "R")]
        else:
            pairs = _CASES[cs]
        edges = _cell_edges(iy, ix)
        segments.extend((edges[a], edges[b]) for a, b in pairs)
    return segments


def _stitch(segments):
    """Chain segments that share grid edges into ordered polylines."""
    adj = {}
    for j, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append((b, j))
        adj.setdefault(b, []).append((a, j))
    used = set()
    chains = []

    def walk(start):
        chain = [start]
        node = start
        while True:
            nxt = None
            for nb, j in adj[node]:
                if j not in used:
                    used.add(j)
                    nxt = nb
                    break
            if nxt is None:
                return chain
            chain.append(nxt)
            node = nxt

    open_ends = [n for n, lst in adj.items() if len(lst) == 1]
    for n in open_ends:
        if all(j in used for _, j in adj[n]):
            continue
        chains.append(walk(n))
    for n in adj:
        if any(j not in used for _, j in adj[n]):
            chains.append(walk(n))
    return chains


def extract_contours(lyap, levels: Sequence[float], plane=("x3t", 0.0),
                     window=None, resolution=(800, 800)) -> list:
    """Marching-squares contours of the bound Lyapunov function.

    `lyap` is a DiseaseFreeLyapunov or EndemicLyapunov; `window` gives the
    ranges of the two free coordinates (default `lyap.default_window(plane)`);
    level 0 degenerates to the anchor point and is emitted as a marker.
    """
    embed = _plane_embedding(plane)
    if window is None:
        window = lyap.default_window(plane)
    (u0, u1), (v0, v1) = window
    if u0 >= u1 or v0 >= v1:
        raise DomainError("window must have positive extent")
    value_fn = lyap.contour_values(levels, plane, window)
    nu, nv = resolution
    if nu < 2 or nv < 2:
        raise ValueError("resolution must be at least 2x2")
    xs = np.linspace(window[0][0], window[0][1], nu)
    ys = np.linspace(window[1][0], window[1][1], nv)
    U, V = np.meshgrid(xs, ys, indexing="xy")
    UV = np.column_stack([U.ravel(), V.ravel()])
    Z = value_fn(embed(UV)).reshape(V.shape)

    out = []
    for level in levels:
        if level < 0.0:
            raise DomainError("levels must be nonnegative")
        if level == 0.0:
            out.append(Contour(0.0, tuple(plane), [], marker=(0.0, 0.0)))
            continue
        segments = _march(Z, level)
        refined = _bisect_edges(segments, xs, ys, embed, value_fn, level)
        chains = _stitch(segments)
        polylines = [np.array([refined[e] for e in chain]) for chain in chains
                     if len(chain) >= 2]
        out.append(Contour(float(level), tuple(plane), polylines))
    return out


def _bisect_edges(segments, xs, ys, embed, value_fn, level):
    """The vertex of every edge of `segments`: 45 bisections of V - level
    along the edge, whose ends straddle the level."""
    if not segments:
        return {}
    keys = list(dict.fromkeys(e for seg in segments for e in seg))
    P0 = np.empty((len(keys), 2))
    P1 = np.empty((len(keys), 2))
    for j, (kind, iy, ix) in enumerate(keys):
        if kind == "h":
            P0[j] = (xs[ix], ys[iy])
            P1[j] = (xs[ix + 1], ys[iy])
        else:
            P0[j] = (xs[ix], ys[iy])
            P1[j] = (xs[ix], ys[iy + 1])

    def values(PT):
        return value_fn(embed(PT)) - level

    lo, hi = P0.copy(), P1.copy()
    swap = values(P0) > 0.0  # then the P1 end lies at or below the level
    lo[swap], hi[swap] = P1[swap], P0[swap]
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        left = (values(mid) <= 0.0)[:, None]
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    mid = 0.5 * (lo + hi)
    return {key: tuple(mid[j]) for j, key in enumerate(keys)}


def analytic_contour_df(lp: DfLyapParams, p: ModelParams, level: float,
                        plane=("x3t", 0.0)) -> Contour:
    """Exact piecewise-linear contour of the disease-free function on x3t = 0.

    Serves as the oracle for the marching-squares extractor: one open
    polyline with kinks at x1t = 0 and at the tilted region boundary.
    """
    if plane[0] != "x3t" or plane[1] != 0.0:
        raise DomainError("analytic contour is defined on the plane x3t = 0")
    if level <= 0.0:
        raise DomainError("level must be positive")
    c = p.beta * (p.b_hat / p.mu) / lp.mu0
    poly = np.array([
        [level, 0.0],        # region A endpoint on the x1t axis
        [0.0, level],        # kink at x1t = 0
        [-c * level, level],  # kink at the tilted boundary
        [-c * level, 0.0],   # region C vertical segment end
    ])
    return Contour(float(level), tuple(plane), [poly])


def polyline_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline (min over its segments)."""
    best = np.full(len(points), np.inf)
    for a, b in zip(poly[:-1], poly[1:]):
        d = b - a
        L2 = float(d @ d)
        if L2 == 0.0:
            dist = np.linalg.norm(points - a, axis=1)
        else:
            t = np.clip(((points - a) @ d) / L2, 0.0, 1.0)
            proj = a + t[:, None] * d
            dist = np.linalg.norm(points - proj, axis=1)
        best = np.minimum(best, dist)
    return best


def polygon_contains(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Ray-casting point-in-polygon test for a closed polyline."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    xs, ys = poly[:, 0], poly[:, 1]
    n = len(poly)
    j = n - 1
    for i in range(n):
        cond = ((ys[i] > y) != (ys[j] > y)) & \
               (x < (xs[j] - xs[i]) * (y - ys[i]) / (ys[j] - ys[i] + 1e-300) + xs[i])
        inside ^= cond
        j = i
    return inside


def write_contours_csv(path, contours: Sequence[Contour], lyap=None,
                       absolute: bool = False) -> None:
    """Emit `level,polyline_id,x1,x2` rows; `absolute` maps the plane
    coordinates to populations by adding the anchor components."""
    import csv as _csv

    off = np.zeros(2)
    if absolute:
        if lyap is None:
            raise ValueError("absolute output needs the lyapunov object")
        q = lyap.equilibrium.point
        axis = contours[0].plane[0] if contours else "x3t"
        off = np.array([q.s, q.i if axis == "x3t" else q.r])
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["level", "polyline_id", "x1", "x2"])
        for cont in contours:
            for pid, poly in enumerate(cont.polylines):
                for u, v in poly:
                    w.writerow([repr(float(cont.level)), pid,
                                repr(float(u + off[0])), repr(float(v + off[1]))])
            if cont.marker is not None:
                w.writerow([repr(float(cont.level)), -1,
                            repr(float(cont.marker[0] + off[0])),
                            repr(float(cont.marker[1] + off[1]))])

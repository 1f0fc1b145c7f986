"""Level-contour extraction on coordinate planes of the deviation space.

Marching squares on an evaluated grid, with each vertex placed by bisection
along the grid edge it crosses, so that every emitted vertex satisfies
|V(v) - level| <= 1e-3*(1 + level) even where the function has kinks inside a
cell.  Kinks are preserved: vertices stay on grid edges and no smoothing is
applied.

Everything runs on arrays; no Python loop runs per cell or per edge.
- The grid is evaluated in bands of grid rows, about `bands.BAND_POINTS`
  points each, written into one reused buffer of deviations.
- Grid edges are integer ids: horizontal edge (iy, ix) is `iy*(nu-1) + ix`,
  and the vertical edges follow, (iy, ix) at `nv*(nu-1) + iy*nu + ix`.
- One pass counts the levels below every node, which finds the crossing
  cells of all levels at once; a table maps each crossed cell's case to its
  segments as pairs of edge ids, in row-major cell order per level.
- The crossing edges of all levels are bisected together in one pass of 45
  steps, each edge against its own level.
- Segments are chained into polylines by pointer jumping over their ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bands import bands
from .errors import DomainError
from .lyap_df import DfLyapParams
from .model import ModelParams

CONTOUR_TOL = 1e-3

#: the four edges of a cell, as columns of the edge table in `_march`
_L, _B, _R, _T = range(4)
#: the segment of each one-segment marching-squares case, as a pair of cell edges
_CASES = {1: (_L, _B), 14: (_L, _B), 2: (_B, _R), 13: (_B, _R), 3: (_L, _R), 12: (_L, _R),
          4: (_R, _T), 11: (_R, _T), 6: (_B, _T), 9: (_B, _T), 7: (_L, _T), 8: (_L, _T)}
#: segments per case, rows 16 and 17 holding the two resolutions of the
#: saddle cases 5 and 10: row 16 cuts off the corners c00 and c11, row 17
#: the corners c01 and c10 (unused rows and second segments are zeros)
_SEGMENTS = np.array([[_CASES.get(c, (0, 0)), (0, 0)] for c in range(16)]
                     + [[(_L, _B), (_R, _T)], [(_L, _T), (_B, _R)]], dtype=np.intp)


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


def _plane_columns(plane) -> tuple:
    """The columns of the two free coordinates and of the fixed one."""
    if plane[0] == "x3t":
        return [0, 1], 2
    if plane[0] == "x2t":
        return [0, 2], 1
    raise ValueError("plane axis must be 'x2t' or 'x3t'")


def _grid_values(value_fn, xs, ys, free, fixed, c):
    """V at every grid node, (len(ys), len(xs)), one band of rows at a time."""
    nu, nv = len(xs), len(ys)
    rows = bands(nv, nu)
    X = np.empty((rows[0][1] * nu, 3))
    X[:, free[0]] = np.tile(xs, rows[0][1])
    X[:, fixed] = c
    Z = np.empty((nv, nu))
    for a, b in rows:
        n = (b - a) * nu
        X[:n, free[1]] = np.repeat(ys[a:b], nu)
        Z[a:b] = value_fn(X[:n]).reshape(b - a, nu)
    return Z


def _march(Z, levels):
    """Segments of the contour of each of the increasing `levels`: per level,
    (m, 2) pairs of edge ids in row-major cell order.  The two ends of every
    such edge lie on opposite sides of the level; cells with a non-finite
    corner are skipped."""
    f = np.isfinite(Z)
    ok = f[:-1, :-1] & f[:-1, 1:] & f[1:, 1:] & f[1:, :-1]
    # a node lies above level j (for finite Z, Z > level is Z - level > 0)
    # iff more than j levels lie below it, so a cell crosses the levels from
    # the least to the greatest such count at its corners
    count = np.zeros(Z.shape, dtype=np.min_scalar_type(len(levels)))
    for level in levels:
        count += Z > level
    corners = [count[:-1, :-1], count[:-1, 1:], count[1:, 1:], count[1:, :-1]]
    least = np.minimum(np.minimum(corners[0], corners[1]), np.minimum(corners[2], corners[3]))
    most = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    iy, ix = np.nonzero(ok & (least < most))
    # one row per crossed (cell, level), by level, cells in row-major order
    least = least[iy, ix].astype(np.intp)
    reps = most[iy, ix] - least
    j = np.repeat(least - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
    order = np.argsort(j, kind="stable")
    cell, j = np.repeat(np.arange(len(iy)), reps)[order], j[order]
    iy, ix = iy[cell], ix[cell]
    cs = sum(w * (c[iy, ix] > j) for w, c in zip((1, 2, 4, 8), corners))
    saddle = np.flatnonzero((cs == 5) | (cs == 10))
    y, x, lv = iy[saddle], ix[saddle], np.asarray(levels)[j[saddle]]
    center = 0.25 * ((Z[y, x] - lv) + (Z[y, x + 1] - lv) + (Z[y + 1, x] - lv)
                     + (Z[y + 1, x + 1] - lv))
    # a centre above the level joins the two corners above it, so the
    # segments cut off the two below: c01 and c10 in case 5, c00 and c11 in
    # case 10; a centre at or below it cuts off the two corners above
    cs[saddle] = np.where((center > 0.0) == (cs[saddle] == 5), 17, 16)
    nv, nu = Z.shape
    bottom = iy * (nu - 1) + ix
    left = nv * (nu - 1) + iy * nu + ix
    edges = np.column_stack([left, bottom, left + 1, bottom + nu - 1])  # L, B, R, T
    ends = np.take_along_axis(edges, _SEGMENTS[cs].reshape(-1, 4), axis=1).reshape(-1, 2, 2)
    two = np.column_stack([np.ones(len(cs), dtype=bool), cs >= 16])
    level_of = np.broadcast_to(j[:, None], two.shape)[two]
    return np.split(ends[two], np.searchsorted(level_of, np.arange(1, len(levels))))


def _jump(nxt):
    """Pointer jumping along `nxt` (-1 ends a walk): per position the last
    position of its walk, the steps to it and the lowest position on the way.
    On a cycle the last position is a cycle member and the lowest covers the
    whole cycle."""
    n = len(nxt)
    succ = np.where(nxt < 0, np.arange(n), nxt)
    dist = (nxt >= 0).astype(np.intp)
    low = np.arange(n)
    for _ in range(max(1, n - 1).bit_length()):
        low = np.minimum(low, low[succ])
        dist = dist + dist[succ]
        succ = succ[succ]
    return succ, dist, low


def _stitch(segments):
    """Chain segments that share grid edges into ordered polylines of node ids.

    Every node meets one or two segments.  A chain starts at an open end
    (first the end that appears first in `segments`) or, for a closed loop,
    at its first-appearing node, and leaves a node by its earlier segment;
    open chains come first, each group in the order of its start node, and a
    loop ends on its start node again.
    """
    F = segments.ravel()
    n = len(F)
    if n == 0:
        return []
    # position q holds one end of segment q // 2; its mate is the other
    # position of the same node, and a walk leaves position q along its
    # segment to q ^ 1, then on by that node's other segment
    order = np.argsort(F, kind="stable")
    same = F[order[1:]] == F[order[:-1]]
    mate = np.full(n, -1)
    mate[order[:-1][same]] = order[1:][same]
    mate[order[1:][same]] = order[:-1][same]
    q = np.arange(n)
    nxt = mate[q ^ 1]
    last, _, low = _jump(nxt)
    loop = nxt[last] >= 0
    # an open walk starts where no walk arrives; of the two walks of an open
    # chain, keep the one whose start position comes first.  A loop starts
    # at its lowest position, which is even on the walk that leaves it.
    first = np.full(n, -1)
    heads = np.flatnonzero(mate < 0)
    first[last[heads]] = heads
    start = np.where(loop, low, first[last])
    keep = np.where(loop, low % 2 == 0, start < (last ^ 1))
    # cut each kept loop before its start and rank every walk from its start
    cut = nxt.copy()
    cut[keep & loop & (nxt == low)] = -1
    _, dist, _ = _jump(cut)
    walk = q[keep][np.lexsort((-dist[keep], start[keep], loop[keep]))]
    begin = np.flatnonzero(np.r_[True, start[walk[1:]] != start[walk[:-1]]])
    nodes = np.insert(F[walk ^ 1], begin, F[walk[begin]])
    return np.split(nodes, begin[1:] + np.arange(1, len(begin)))


def extract_contours(lyap, levels: Sequence[float], plane=("x3t", 0.0),
                     window=None, resolution=(800, 800)) -> list:
    """Marching-squares contours of the bound Lyapunov function.

    `lyap` is a DiseaseFreeLyapunov or EndemicLyapunov; `window` gives the
    ranges of the two free coordinates (default `lyap.default_window(plane)`);
    level 0 degenerates to the anchor point and is emitted as a marker.  The
    grid is evaluated only when some level is positive.
    """
    free, fixed = _plane_columns(plane)
    if window is None:
        window = lyap.default_window(plane)
    (u0, u1), (v0, v1) = window
    if u0 >= u1 or v0 >= v1:
        raise DomainError("window must have positive extent")
    if any(level < 0.0 for level in levels):
        raise DomainError("levels must be nonnegative")
    nu, nv = resolution
    if nu < 2 or nv < 2:
        raise ValueError("resolution must be at least 2x2")
    value_fn = lyap.contour_values(levels, plane, window)
    out = [Contour(0.0, tuple(plane), [], marker=(0.0, 0.0)) if level == 0.0
           else Contour(float(level), tuple(plane)) for level in levels]
    if not any(level > 0.0 for level in levels):
        return out
    xs = np.linspace(u0, u1, nu)
    ys = np.linspace(v0, v1, nv)
    Z = _grid_values(value_fn, xs, ys, free, fixed, plane[1])
    grid_levels = np.array(sorted({float(level) for level in levels if level > 0.0}))
    segments = _march(Z, grid_levels)
    found = []
    for cont in out:
        if cont.level > 0.0:
            j = np.searchsorted(grid_levels, cont.level)
            edges, seg = np.unique(segments[j], return_inverse=True)
            found.append((cont, edges, seg.reshape(-1, 2)))
    edges = np.concatenate([e for _, e, _ in found])
    level_of = np.concatenate([np.full(len(e), cont.level) for cont, e, _ in found])
    vertices = _bisect_edges(edges, level_of, Z, xs, ys, free, fixed, plane[1], value_fn)
    offset = 0
    for cont, e, seg in found:
        cont.polylines = [vertices[offset + chain] for chain in _stitch(seg)]
        offset += len(e)
    return out


def _bisect_edges(edges, levels, Z, xs, ys, free, fixed, c, value_fn):
    """The vertex on every edge, (n, 2): 45 bisections of V - level along the
    edge, whose ends straddle its level, all edges in one pass."""
    if len(edges) == 0:
        return np.empty((0, 2))
    nv, nu = Z.shape
    vertical = edges >= nv * (nu - 1)
    iy, ix = np.divmod(np.where(vertical, edges - nv * (nu - 1), edges),
                       np.where(vertical, nu, nu - 1))
    # bisect the one coordinate that runs along each edge, written into the
    # deviations of the edges' first nodes
    X = np.empty((len(edges), 3))
    X[:, fixed] = c
    X[:, free[0]] = xs[ix]
    X[:, free[1]] = ys[iy]
    rows, col = np.arange(len(edges)), np.where(vertical, free[1], free[0])
    lo = X[rows, col]
    hi = np.where(vertical, ys[iy + vertical], xs[ix + ~vertical])
    swap = Z[iy, ix] - levels > 0.0  # then the second end lies at or below
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        X[rows, col] = mid
        left = value_fn(X) - levels <= 0.0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    X[rows, col] = 0.5 * (lo + hi)
    return X[:, free]


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
    off = np.zeros(2)
    if absolute:
        if lyap is None:
            raise ValueError("absolute output needs the lyapunov object")
        q = lyap.equilibrium.point
        axis = contours[0].plane[0] if contours else "x3t"
        off = np.array([q.s, q.i if axis == "x3t" else q.r])
    with open(path, "w", newline="") as fh:
        fh.write("level,polyline_id,x1,x2\r\n")
        for cont in contours:
            level = repr(float(cont.level))
            for pid, poly in enumerate(cont.polylines):
                fh.write("".join(f"{level},{pid},{u!r},{v!r}\r\n"
                                 for u, v in (poly + off).tolist()))
            if cont.marker is not None:
                u, v = (np.asarray(cont.marker) + off).tolist()
                fh.write(f"{level},-1,{u!r},{v!r}\r\n")

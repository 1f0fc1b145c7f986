"""Level sets of the Lyapunov functions on coordinate planes of the deviation space.

Both functions are linear on each region, or P^{-1} of a linear form there,
so on a plane x3t = c or x2t = c every level set is a polyline with
closed-form vertices, which the Lyapunov class constructs (`level_ring`):
four vertices for the disease-free function, a hexagon for the endemic one
on x3t = c, and on x2t = c the graph x3t = (level - V12)/lambda3 with its
mirror.  `extract_contours` clips that polyline to the window.  No value is
evaluated on a grid and nothing is bisected, so every vertex lies on the
level set up to rounding.  Polylines are lists of (u, v) float tuples, and
clipping and the CSV writer work on them without numpy; only the endemic
graph on x2t planes and the two geometry helpers (`polyline_distance`,
`polygon_contains`) use arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Optional, Sequence

from . import flow
from .errors import DomainError
from .lyap_df import DfLyapParams, df_level_polyline
from .model import ModelParams

if TYPE_CHECKING:
    import numpy as np


@dataclass
class Contour:
    """One level's polylines, lists of (u, v) float tuples in the plane's
    free coordinates."""

    level: float
    plane: tuple  # (fixed axis name, value), e.g. ("x3t", 0.0)
    polylines: list = field(default_factory=list)
    marker: Optional[tuple] = None  # degenerate level: a single point


def _clip_half(poly: list, axis: int, bound: float, sign: float) -> list:
    """The pieces of a polyline in the closed half-plane sign*(x[axis] - bound) >= 0.

    A piece that leaves the half-plane ends at the crossing point, whose
    `axis` coordinate is `bound` exactly.  A closed ring (first vertex
    repeated) that the edge cuts is first rotated to start outside, so no
    piece wraps around its start.
    """
    s = [sign * (q[axis] - bound) for q in poly]
    if all(x >= 0.0 for x in s):
        return [poly]
    if len(poly) > 2 and poly[0] == poly[-1]:
        j = next((i for i, x in enumerate(s) if x < 0.0), 0)
        poly, s = poly[j:-1] + poly[:j + 1], s[j:-1] + s[:j + 1]
    # the vertices with the crossing points between them, each marked inside or not
    pts, inside = [poly[0]], [s[0] >= 0.0]
    for q0, q1, a, b in zip(poly, poly[1:], s, s[1:]):
        if (a > 0.0 and b < 0.0) or (a < 0.0 and b > 0.0):
            t = a / (a - b)
            x = [c0 + t * (c1 - c0) for c0, c1 in zip(q0, q1)]
            x[axis] = bound
            pts.append(tuple(x))
            inside.append(True)
        pts.append(q1)
        inside.append(b >= 0.0)
    # maximal runs of points inside; a run of one point only touches the edge
    runs = ([q for q, _ in run] for ok, run in groupby(zip(pts, inside), key=itemgetter(1)) if ok)
    return [run for run in runs if len(run) >= 2]


def _clip_to_window(poly: list, window) -> list:
    """The pieces of a polyline inside the closed window rectangle: polyline
    clipping against its four edges in turn (Sutherland & Hodgman, CACM
    17(1), 1974).  A closed ring that the window does not cut stays closed;
    one that it cuts becomes open pieces ending on the border."""
    (u0, u1), (v0, v1) = window
    pieces = [poly]
    for axis, bound, sign in ((0, u0, 1.0), (0, u1, -1.0), (1, v0, 1.0), (1, v1, -1.0)):
        pieces = [q for piece in pieces for q in _clip_half(piece, axis, bound, sign)]
    return pieces


def extract_contours(lyap, levels: Sequence[float], plane=("x3t", 0.0),
                     window=None, resolution=(800, 800)) -> list:
    """Exact level sets of the bound Lyapunov function, clipped to the window.

    `lyap` is a DiseaseFreeLyapunov or EndemicLyapunov; `window` gives the
    ranges of the two free coordinates (default `lyap.default_window(plane)`);
    level 0 degenerates to the anchor point, emitted as a marker on a plane
    through it (value 0) and as nothing on any other.
    `resolution[0]` sets the abscissae of the endemic graph on x2t planes;
    the polygons of both functions ignore it.  Each level's polyline comes
    from `lyap.level_ring`, which also refuses planes, windows and levels
    outside the function's domain.
    """
    if plane[0] not in ("x2t", "x3t"):
        raise ValueError("plane axis must be 'x2t' or 'x3t'")
    if window is None:
        window = lyap.default_window(plane)
    (u0, u1), (v0, v1) = window
    if u0 >= u1 or v0 >= v1:
        raise DomainError("window must have positive extent")
    if any(level < 0.0 for level in levels):
        raise DomainError("levels must be nonnegative")
    if resolution[0] < 2 or resolution[1] < 2:
        raise ValueError("resolution must be at least 2x2")
    out = []
    for level in levels:
        ring = lyap.level_ring(float(level), tuple(plane), window, resolution[0])
        if level == 0.0:
            marker = (0.0, 0.0) if plane[1] == 0.0 else None
            out.append(Contour(0.0, tuple(plane), [], marker=marker))
        else:
            pieces = [] if ring is None else _clip_to_window(ring, window)
            out.append(Contour(float(level), tuple(plane), pieces))
    return out


def analytic_contour_df(lp: DfLyapParams, p: ModelParams, level: float) -> Contour:
    """Exact contour of the disease-free function on x3t = 0, unclipped: one
    open polyline with kinks at x1t = 0 and at the tilted region boundary
    (`lyap_df.df_level_polyline`, the formula `level_ring` maps to any plane).
    """
    if level <= 0.0:
        raise DomainError("level must be positive")
    return Contour(float(level), ("x3t", 0.0), [df_level_polyline(lp, p, level)])


def polyline_distance(points, poly) -> np.ndarray:
    """Distance from each point to a polyline (min over its segments); both
    are (n, 2) arrays or lists of (u, v) pairs."""
    import numpy as np
    points, poly = np.asarray(points, dtype=float), np.asarray(poly, dtype=float)
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


def polygon_contains(poly, pts) -> np.ndarray:
    """Ray-casting point-in-polygon test for a closed polyline; both are
    (n, 2) arrays or lists of (u, v) pairs."""
    import numpy as np
    poly, pts = np.asarray(poly, dtype=float), np.asarray(pts, dtype=float)
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


def write_contours_csv(path, contours: Sequence[Contour]) -> None:
    """Emit `level,polyline_id,x1,x2` rows in the plane's coordinates.  Each
    coordinate has 0.0 added, which writes -0.0 as 0.0.  The text goes
    through `flow.csv_file`, so it replaces `path` only once complete."""

    def blocks():  # one block of rows per polyline
        for cont in contours:
            rows = list(enumerate(cont.polylines))
            if cont.marker is not None:
                rows.append((-1, [cont.marker]))
            for pid, poly in rows:
                yield [(float(cont.level), pid, float(u) + 0.0, float(v) + 0.0) for u, v in poly]

    with flow.csv_file(path, "level,polyline_id,x1,x2") as fh:
        flow.write_rows(fh, blocks(), "{!r},{},{!r},{!r}\r\n".format)

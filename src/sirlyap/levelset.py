"""Level sets of the Lyapunov functions on coordinate planes of the deviation space.

Both functions are linear on each region, or P^{-1} of a linear form there,
so on a plane x3t = c or x2t = c every level set is a polyline with
closed-form vertices, which the Lyapunov class constructs (`level_ring`):
four vertices for the disease-free function, a hexagon for the endemic one
on x3t = c, and on x2t = c the graph x3t = (level - V12)/lambda3 with its
mirror.  `extract_contours` clips that polyline to the window.  No value is
evaluated on a grid and nothing is bisected, so every vertex lies on the
level set up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .lyap_df import DfLyapParams, df_level_polyline
from .model import ModelParams


@dataclass
class Contour:
    """One level's polylines in the plane's free coordinates."""

    level: float
    plane: tuple  # (fixed axis name, value), e.g. ("x3t", 0.0)
    polylines: list = field(default_factory=list)
    marker: Optional[tuple] = None  # degenerate level: a single point


def _clip_half(poly: np.ndarray, axis: int, bound: float, sign: float) -> list:
    """The pieces of a polyline in the closed half-plane sign*(x[axis] - bound) >= 0.

    A piece that leaves the half-plane ends at the crossing point, whose
    `axis` coordinate is `bound` exactly.  A closed ring (first vertex
    repeated) that the edge cuts is first rotated to start outside, so no
    piece wraps around its start.
    """
    s = sign * (poly[:, axis] - bound)
    if np.all(s >= 0.0):
        return [poly]
    if len(poly) > 2 and np.array_equal(poly[0], poly[-1]):
        j = int(np.argmax(s < 0.0))
        poly = np.vstack([poly[j:-1], poly[:j + 1]])
        s = sign * (poly[:, axis] - bound)
    a, b = s[:-1], s[1:]
    cross = np.flatnonzero(((a > 0.0) & (b < 0.0)) | ((a < 0.0) & (b > 0.0)))
    t = a[cross] / (a[cross] - b[cross])
    pts = poly[cross] + t[:, None] * (poly[cross + 1] - poly[cross])
    pts[:, axis] = bound
    pts_all = np.insert(poly, cross + 1, pts, axis=0)
    inside = np.insert(s >= 0.0, cross + 1, True)
    # maximal runs of points inside; a run of one point only touches the edge
    step = np.diff(np.r_[0, inside.astype(np.int8), 0])
    return [pts_all[i:j] for i, j in zip(np.flatnonzero(step == 1), np.flatnonzero(step == -1))
            if j - i >= 2]


def _clip_to_window(poly: np.ndarray, window) -> list:
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
    level 0 degenerates to the anchor point and is emitted as a marker.
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
            out.append(Contour(0.0, tuple(plane), [], marker=(0.0, 0.0)))
        else:
            pieces = [] if ring is None else _clip_to_window(ring, window)
            out.append(Contour(float(level), tuple(plane), pieces))
    return out


def analytic_contour_df(lp: DfLyapParams, p: ModelParams, level: float,
                        plane=("x3t", 0.0)) -> Contour:
    """Exact contour of the disease-free function on x3t = 0, unclipped: one
    open polyline with kinks at x1t = 0 and at the tilted region boundary
    (`lyap_df.df_level_polyline`, the formula `level_ring` maps to any plane).
    """
    if plane[0] != "x3t" or plane[1] != 0.0:
        raise DomainError("analytic contour is defined on the plane x3t = 0")
    if level <= 0.0:
        raise DomainError("level must be positive")
    return Contour(float(level), tuple(plane), [df_level_polyline(lp, p, level)])


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

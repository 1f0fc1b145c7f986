"""Piecewise-linear ISS Lyapunov function for the disease-free equilibrium.

V is the largest of three linear formulas on the deviation space R x R+^2,
and a point's region is the first of A, B, C whose formula is largest; two
formulas tie on the plane x1t = 0 (A) and on the tilted plane
x1t = -(beta*x1hat/mu0) * (x2t + lambda3*x3t) (B, `df_threshold`).

Evaluation runs on arrays only: each region's value formula and gradient
are written once, over deviation arrays of shape (n, 3), and a single point
is a 1-row array; outside R x R+^2 the value is NaN.  numpy is imported
inside the array functions only, so the constants, the level polyline and
`sirlyap params` run without it.

`DiseaseFreeLyapunov` holds V's ISS gain `chi`, its input range and what it
certifies off its boundary band: wherever V >= chi(|u|), -grad V . f under
the input u exceeds (1-delta)*(mu - mu0)*V (`iss_decrease`).  Certify's
checks and their order belong to the harness above this module.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from . import model
from .errors import DomainError, InfeasibleOverride, RegimeError
from .model import EquilibriumKind, FloatRecord, ModelParams

if TYPE_CHECKING:
    import numpy as np

#: boundary band (relative) inside which analytic gradients are refused,
#: for this function and the endemic one
BOUNDARY_BAND = 1e-9

#: default share delta of the decay budget traded for the input gain, for
#: this function and the endemic one
DELTA = 0.5


class DfLyapParams(FloatRecord):
    """Constants of the disease-free function.

    mu0 in (0, mu); eps in (max{mu/(gamma+mu) - R0, 0}, 1 - R0);
    gamma0 = (gamma+mu)*(R0+eps) - mu lies in (0, gamma);
    lambda3 = 1 - gamma0/gamma > 0; delta in (0,1) splits the decay budget.
    """

    mu0: float
    eps: float
    gamma0: float
    lambda3: float
    delta: float


def _eps_interval(p: ModelParams) -> tuple:
    r0 = model.r0_hat(p)
    lo = max(p.mu / (p.gamma + p.mu) - r0, 0.0)
    hi = 1.0 - r0
    return lo, hi


def _require_overrides(delta: Optional[float], **positive: float) -> float:
    """The delta to use (DELTA for None); InfeasibleOverride for delta outside
    (0, 1) or a named value <= 0."""
    if delta is None:
        delta = DELTA
    if not 0.0 < delta < 1.0:
        raise InfeasibleOverride(f"delta={delta:.6g} outside (0, 1)")
    for name, v in positive.items():
        if not v > 0.0:
            raise InfeasibleOverride(f"{name}={v:.6g} must be positive")
    return delta


def select_df_params(p: ModelParams, mu0: Optional[float] = None,
                     eps: Optional[float] = None,
                     delta: Optional[float] = None) -> DfLyapParams:
    """Choose feasible constants; defaults put eps mid-interval, mu0 = 0.99*mu.

    Raises RegimeError unless b_hat > 0 and the regime is
    DISEASE_FREE_STABLE (R0 below 1 by more than `model.REGIME_BOUNDARY_RTOL`),
    and InfeasibleOverride when a supplied override violates its
    open-interval constraint.
    """
    r0 = model.r0_hat(p)
    if p.b_hat <= 0.0 or model.classify_regime(p) is not model.Regime.DISEASE_FREE_STABLE:
        raise RegimeError(f"disease-free construction needs b_hat > 0 and R0 below 1 by more "
                          f"than the relative band {model.REGIME_BOUNDARY_RTOL!r} "
                          f"(b_hat={p.b_hat!r}, R0={r0!r}, threshold 1.0)")
    lo, hi = _eps_interval(p)
    if eps is None:
        eps = 0.5 * (lo + hi)
    elif not (lo < eps < hi):
        raise InfeasibleOverride(f"eps={eps:.6g} outside open interval ({lo:.6g}, {hi:.6g})")
    if mu0 is None:
        mu0 = 0.99 * p.mu
    elif not (0.0 < mu0 < p.mu):
        raise InfeasibleOverride(f"mu0={mu0:.6g} outside (0, mu)")
    delta = _require_overrides(delta)
    gamma0 = (p.gamma + p.mu) * (r0 + eps) - p.mu
    lambda3 = 1.0 - gamma0 / p.gamma
    if not (0.0 < gamma0 < p.gamma and lambda3 > 0.0):
        raise InfeasibleOverride("derived gamma0 not in (0, gamma)")
    return DfLyapParams(mu0=mu0, eps=eps, gamma0=gamma0, lambda3=lambda3, delta=delta)


def _x1hat(p: ModelParams) -> float:
    return p.b_hat / p.mu


def df_threshold(lp: DfLyapParams, p: ModelParams, x2t, x3t):
    """Boundary surface between regions B and C (an x1t level per point)."""
    return -(p.beta * _x1hat(p) / lp.mu0) * (x2t + lp.lambda3 * x3t)


# ---------------------------------------------------------------------------
# array evaluation over deviations X (n, 3)
# ---------------------------------------------------------------------------

def _first_max(columns, codes) -> tuple:
    """Per row, the largest of the (n,) `columns` and the code (an int or an
    int8 array, one per column) of the first column reaching it: a strict >
    keeps the earlier of equal values, a first +0.0 over a later -0.0 too."""
    import numpy as np
    best, code = columns[0], np.full(columns[0].shape, codes[0], dtype=np.int8)
    for col, c in zip(columns[1:], codes[1:]):
        gt = col > best
        best = np.where(gt, col, best)
        code = np.where(gt, c, code)
    return best, code


def df_region_values(lp: DfLyapParams, p: ModelParams, X: np.ndarray) -> tuple:
    """The value formulas of regions A, B and C, each evaluated at every row."""
    x1t, x2t, x3t = X[:, 0], X[:, 1], X[:, 2]
    lin23 = x2t + lp.lambda3 * x3t
    return x1t + lin23, lin23, -lp.mu0 * x1t / (p.beta * _x1hat(p))


def df_value_region_arrays(lp: DfLyapParams, p: ModelParams, X: np.ndarray):
    """Values and region codes (0=A, 1=B, 2=C) for deviations X of shape (n, 3);
    the value is NaN outside the domain R x R+^2 (x2t < 0 or x3t < 0)."""
    import numpy as np
    v, codes = _first_max(df_region_values(lp, p, X), (0, 1, 2))
    return np.where((X[:, 1] < 0.0) | (X[:, 2] < 0.0), np.nan, v), codes


def df_gradient_arrays(lp: DfLyapParams, p: ModelParams, X: np.ndarray) -> np.ndarray:
    """Per-point gradient (n, 3) of the assigned region; no boundary-band policing."""
    import numpy as np
    grads = np.array([[1.0, 1.0, lp.lambda3], [0.0, 1.0, lp.lambda3],
                      [-lp.mu0 / (p.beta * _x1hat(p)), 0.0, 0.0]])
    return grads[df_value_region_arrays(lp, p, X)[1]]


def df_grad_dot_f_arrays(lp: DfLyapParams, p: ModelParams, X: np.ndarray, u: float) -> np.ndarray:
    """grad V . f along the deviation dynamics under a constant perturbation u.

    Uses the gradient of the region each point is assigned to, so on a
    boundary this is the one-sided derivative of the closed-inequality side
    (at the anchor itself the dynamics vanish and the choice is immaterial).
    """
    G = df_gradient_arrays(lp, p, X)
    f1, f2, f3 = model.rhs_arrays(p, _x1hat(p) + X[:, 0], X[:, 1], X[:, 2], p.b_hat + u)
    return G[:, 0] * f1 + G[:, 1] * f2 + G[:, 2] * f3


def df_level_polyline(lp: DfLyapParams, p: ModelParams, level: float) -> list:
    """The level set {V = level} in the coordinates (x1t, w), w = x2t + lambda3*x3t,
    on which V depends alone: the open polyline (level, 0), (0, level),
    (-a*level, level), (-a*level, 0) with a = beta*x1h/mu0, one straight piece
    in each of the regions A, B and C, as a list of (x1t, w) float tuples."""
    a = p.beta * _x1hat(p) / lp.mu0
    return [(level, 0.0), (0.0, level), (-a * level, level), (-a * level, 0.0)]


class DiseaseFreeLyapunov:
    """Bound (model, params) pair with vectorised evaluation helpers."""

    kind = EquilibriumKind.DISEASE_FREE
    invariance_level = None  # no level budget: the certificate is global

    def __init__(self, p: ModelParams, lp: DfLyapParams):
        self.p = p
        self.lp = lp
        self.equilibrium = model.disease_free_eq(p)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        return df_value_region_arrays(self.lp, self.p, X)[0]

    def value_of_states(self, S: np.ndarray) -> np.ndarray:
        q = self.equilibrium.as_array()
        return self.value_many(S - q[None, :])

    def near_boundary(self, X: np.ndarray) -> np.ndarray:
        """True where a point lies within the band BOUNDARY_BAND*(1+|X|),
        measured along x1t, of a region boundary."""
        import numpy as np
        thr = df_threshold(self.lp, self.p, X[:, 1], X[:, 2])
        dist = np.minimum(np.abs(X[:, 0]), np.abs(X[:, 0] - thr))
        return dist <= BOUNDARY_BAND * (1.0 + np.linalg.norm(X, axis=1))

    def grad_dot_f(self, X: np.ndarray, u: float) -> np.ndarray:
        return df_grad_dot_f_arrays(self.lp, self.p, X, u)

    def iss_decrease(self, X: np.ndarray, u_values) -> tuple:
        """Per input u of u_values, where V >= chi(|u|) holds, per row of X;
        and the rate (1-delta)*(mu - mu0)*V that -grad V . f under each such
        u exceeds there."""
        v = self.value_many(X)
        return ([v >= self.chi(abs(u)) for u in u_values],
                (1.0 - self.lp.delta) * (self.p.mu - self.lp.mu0) * v)

    def chi(self, u_mag: float) -> float:
        """ISS threshold |u| / (delta*(mu - mu0))."""
        return abs(u_mag) / (self.lp.delta * (self.p.mu - self.lp.mu0))

    def chi_signed(self, u_pos: float, u_neg: float) -> float:
        """Threshold for inputs within [-u_neg, u_pos]: chi of the larger side."""
        return self.chi(max(u_pos, u_neg))

    def admissible_u(self) -> tuple:
        """Perturbation range keeping B(t) nonnegative."""
        return (-self.p.b_hat, math.inf)

    def admits(self, u_pos: float, u_neg: float) -> bool:
        """Inputs within [-u_neg, u_pos] lie in the range, closed at -b_hat."""
        return -u_neg >= self.admissible_u()[0]

    def start_states(self, n: int, seed: int) -> np.ndarray:
        """n seeded states in [0, 3*x1h] x [0, 2*x1h]^2."""
        import numpy as np
        rng, x1h = np.random.default_rng(seed), self.equilibrium.s
        return np.column_stack([rng.uniform(0.0, f * x1h, n) for f in (3.0, 2.0, 2.0)])

    def default_window(self, plane) -> tuple:
        """x1t in [-x1h, 3*x1h]; the other free coordinate from 0 to where V
        reaches 3.1*x1h along it (slope 1 for x2t, lambda3 for x3t)."""
        x1h = self.equilibrium.s
        slope = 1.0 if plane[0] == "x3t" else self.lp.lambda3
        return ((-x1h, 3.0 * x1h), (0.0, 3.1 * x1h / slope))

    def default_levels(self) -> list:
        return [10.0, 30.0, 60.0, 100.0, 180.0, 260.0, 340.0, 420.0, 500.0]

    def level_ring(self, level, plane, window, n):
        """The level set {V = level} on `plane` in the plane's free
        coordinates, a list of (u, v) float tuples: `df_level_polyline` with w
        mapped to x2t = w - lambda3*c on x3t = c and to x3t = (w - c)/lambda3
        on x2t = c, or None at level 0; the window clips it to x2t, x3t >= 0
        and `n` is unused.  DomainError when the plane or window leaves
        x2t, x3t >= 0."""
        if plane[1] < 0.0 or window[1][0] < 0.0:
            raise DomainError("disease-free function needs x2t >= 0 and x3t >= 0")
        if level == 0.0:
            return None
        ring, c, lam3 = df_level_polyline(self.lp, self.p, level), plane[1], self.lp.lambda3
        if plane[0] == "x3t":
            return [(u, w - lam3 * c) for u, w in ring]
        return [(u, (w - c) / lam3) for u, w in ring]

    def params_report(self) -> dict:
        return {"chi_slope": self.chi(1.0)}

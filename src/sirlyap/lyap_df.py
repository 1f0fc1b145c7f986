"""Piecewise-linear ISS Lyapunov function for the disease-free equilibrium.

The function is linear on each of three regions of the deviation space
R x R+^2; the regions are separated by the plane x1t = 0 and by the tilted
plane x1t = -(beta*x1hat/mu0) * (x2t + lambda3*x3t).

Evaluation is array-first: each region's value formula and gradient, the
region split and the boundary band are written once, over deviation arrays
of shape (n, 3).  The scalar functions (`df_region`, `df_value`,
`df_gradient`, `df_grad_dot_f`) check the domain of one `Deviation` and read
row 0 of the array path.  numpy is imported inside the array functions
only, so the constants, the level polyline and `sirlyap params` run
without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from . import model
from .errors import DomainError, InfeasibleOverride, OnBoundary, RegimeError
from .model import Deviation, EquilibriumKind, FloatRecord, ModelParams

if TYPE_CHECKING:
    import numpy as np

#: boundary band (relative) inside which analytic gradients are refused,
#: for this function and the endemic one
BOUNDARY_BAND = 1e-9

#: default share delta of the decay budget traded for the input gain, for
#: this function and the endemic one
DELTA = 0.5


@dataclass(frozen=True)
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


class DfRegion(Enum):
    A = "A"  # x1t >= 0
    B = "B"  # threshold <= x1t < 0
    C = "C"  # x1t < threshold


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

    Raises RegimeError unless b_hat > 0 and R0 < 1, and InfeasibleOverride
    when a supplied override violates its open-interval constraint.
    """
    r0 = model.r0_hat(p)
    if p.b_hat <= 0.0 or r0 >= 1.0:
        raise RegimeError(f"disease-free construction needs b_hat > 0 and R0 < 1 (R0={r0:.6g})")
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


def df_chi(lp: DfLyapParams, p: ModelParams, u_mag: float) -> float:
    """ISS threshold |u| / (delta*(mu - mu0))."""
    return abs(u_mag) / (lp.delta * (p.mu - lp.mu0))


def df_decay_rate(lp: DfLyapParams, p: ModelParams) -> float:
    """Certified decay rate (1-delta)*(mu-mu0) above the chi threshold."""
    return (1.0 - lp.delta) * (p.mu - lp.mu0)


# ---------------------------------------------------------------------------
# array evaluation over deviations X (n, 3); scalar forms read row 0
# ---------------------------------------------------------------------------

def df_region_values(lp: DfLyapParams, p: ModelParams, X: np.ndarray) -> tuple:
    """The value formulas of regions A, B and C, each evaluated at every row."""
    x1t, x2t, x3t = X[:, 0], X[:, 1], X[:, 2]
    lin23 = x2t + lp.lambda3 * x3t
    return x1t + lin23, lin23, -lp.mu0 * x1t / (p.beta * _x1hat(p))


def df_value_region_arrays(lp: DfLyapParams, p: ModelParams, X: np.ndarray):
    """Values and region codes (0=A, 1=B, 2=C) for deviations X of shape (n, 3);
    boundary points go to the closed-inequality side."""
    import numpy as np
    x1t = X[:, 0]
    in_b = x1t >= df_threshold(lp, p, X[:, 1], X[:, 2])
    codes = np.where(x1t >= 0.0, 0, np.where(in_b, 1, 2)).astype(np.int8)
    return np.choose(codes, df_region_values(lp, p, X)), codes


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


def df_near_boundary(lp: DfLyapParams, p: ModelParams, X: np.ndarray) -> np.ndarray:
    """True where a point lies within the band BOUNDARY_BAND*(1+|X|), measured
    along x1t, of a region boundary."""
    import numpy as np
    thr = df_threshold(lp, p, X[:, 1], X[:, 2])
    dist = np.minimum(np.abs(X[:, 0]), np.abs(X[:, 0] - thr))
    return dist <= BOUNDARY_BAND * (1.0 + np.linalg.norm(X, axis=1))


def _row(dev: Deviation) -> np.ndarray:
    """One deviation as a 1-row batch for the array path."""
    if dev.x2t < 0.0 or dev.x3t < 0.0:
        raise DomainError("disease-free function needs x2t >= 0 and x3t >= 0")
    return dev.as_array()[None, :]


def df_region(lp: DfLyapParams, p: ModelParams, dev: Deviation) -> DfRegion:
    """Classify a deviation; boundary points go to the closed-inequality side."""
    return list(DfRegion)[df_value_region_arrays(lp, p, _row(dev))[1][0]]


def df_value(lp: DfLyapParams, p: ModelParams, dev: Deviation) -> float:
    return float(df_value_region_arrays(lp, p, _row(dev))[0][0])


def df_gradient(lp: DfLyapParams, p: ModelParams, dev: Deviation) -> tuple:
    """Analytic gradient; refuses points within the boundary band."""
    X = _row(dev)
    if df_near_boundary(lp, p, X)[0]:
        raise OnBoundary("deviation within band of a region boundary")
    return tuple(float(g) for g in df_gradient_arrays(lp, p, X)[0])


def df_grad_dot_f(lp: DfLyapParams, p: ModelParams, dev: Deviation, u: float) -> float:
    """Directional derivative along the deviation dynamics; see df_grad_dot_f_arrays."""
    return float(df_grad_dot_f_arrays(lp, p, _row(dev), u)[0])


def df_decrease_slack(lp: DfLyapParams, p: ModelParams, dev: Deviation, u: float) -> float:
    """Slack of the decrease inequality at one point.

    Nonnegative slack certifies the ISS implication here whenever
    V(dev) >= chi(|u|).  u must stay >= -b_hat so the rate B stays valid.
    """
    if u < -p.b_hat:
        raise DomainError("u must be >= -b_hat")
    gf = df_grad_dot_f(lp, p, dev, u)
    v = df_value(lp, p, dev)
    return -gf - df_decay_rate(lp, p) * v


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
        q = self.equilibrium.point.as_array()
        return self.value_many(S - q[None, :])

    def chi(self, u_mag: float) -> float:
        return df_chi(self.lp, self.p, u_mag)

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
        rng, x1h = np.random.default_rng(seed), self.equilibrium.point.s
        return np.column_stack([rng.uniform(0.0, f * x1h, n) for f in (3.0, 2.0, 2.0)])

    def default_window(self, plane) -> tuple:
        """x1t in [-x1h, 3*x1h]; the other free coordinate from 0 to where V
        reaches 3.1*x1h along it (slope 1 for x2t, lambda3 for x3t)."""
        x1h = self.equilibrium.point.s
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

    def checks(self, seed: int, grid_n: int, n_samples: int, trajectory_check) -> list:
        """Callables building this function's certify checks, in report order;
        the trajectory monotonicity one calls `trajectory_check` with the
        arguments of `verify.check_trajectory_monotonicity`."""
        from . import verify  # here, not at the top: verify imports this module
        return [lambda: verify.check_df_continuity(self, seed=seed),
                lambda: verify.check_df_positive_definite(self, seed=seed),
                lambda: verify.check_df_grid_iss(self, n=grid_n),
                lambda: trajectory_check(
                    self, n_starts=verify.N_STARTS, seed=seed, final_tol=1e-3)]

    def iss_magnitude(self) -> float:
        """Magnitude of the certify ISS signals."""
        return self.p.b_hat / 10.0

"""Six-region ISS Lyapunov function for the endemic equilibrium.

The planar part V12 is assembled from linear pieces and from compositions of
two monotone maps:

    theta(s)  = x2h * s / (x1h + s)          on (-x1h, inf), range (-inf, x2h)
    omega(s)  = s + lambda_hat2*theta(s)     (a bijection onto R)
    P(s)      = lam0 * theta(omega^{-1}(s)),  lam0 = 1 - k
    nu(s)     = lambda_hat2*s - P(lam0*s)

P has the closed-form inverse

    P^{-1}(s) = theta^{-1}(s/lam0) + lambda_hat2*s/lam0,

defined for s < lam0*x2h, with derivative bounded below by lambda_hat2/lam0.
omega^{-1} is a root of a quadratic, so P is closed-form as well.  The ISS
gain eta (`en_eta`) and its inverse (`en_eta_inv`) are extrema over one
variable, w = P(V12) in [0, S) with S = lam0*x2h, taken at the ends of the
range and at the real roots of a quartic and a cubic in t = 1 - w/S.
The sublevel sets of V = V12 + lambda3*|x3t| are closed loops around the
endemic equilibrium; feasibility of (k, lambda3, lambda_hat2, l_bar) is
certified numerically by `check_condition_50`.

Each region's V12 is written once, as a linear form in (x1t, x2t) taken
through P^{-1} in regions C, D and E (`_region_forms`); V12 is the largest
of the six (each level set is a hexagon of half-planes, `en_level_hexagon`),
and a point's region is the first of A..F (codes 0..5, `REGION_LABELS`)
whose formula is largest.  The array functions over deviations (n, 3) are
the one evaluation path: a single point is a 1-row array.  Outside the
domain H (`en_value_many`) V is NaN.

The paper takes lambda1 = lambda2 as the weights of x1t and x2t.  V is
homogeneous of degree one in (lambda1, lambda2, lambda_hat2, lambda3), with
l_bar alongside; condition (50), k0 and lambda3's ratio to its ceilings are
scale-free, so the normal form lambda1 = lambda2 = 1 here loses nothing.

The monotone maps take a Python float and return one, or take an array and
return an array, with one formula for both (`_theta`, `_omega_inv`, ...),
and refuse a level without a finite value (`_finite`).  The feasibility
maths (k0, the lambda3 ceilings, condition (50), the input range), the
hexagon and the default window run on floats, so `sirlyap params` and the
x3t-plane level sets run without numpy; it is imported inside the array
functions only.

`EndemicLyapunov` holds V's ISS gain, its input range, the feasibility
summary and what it certifies off its boundary band: the rate of each region
with u = 0 (`decrease_rate`, its constants from `rate_constants`) and,
where an ISS hypothesis holds, (1-delta) times the outer regions' rates
under u (`iss_decrease`).  Certify's checks and their order belong to the
harness above this module.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from . import model
from .bands import bands
from .errors import DomainError, InfeasibleOverride, NoConvergence, RegimeError
from .lyap_df import BOUNDARY_BAND, _first_max, _require_overrides
from .model import EquilibriumKind, FloatRecord, ModelParams, Regime

if TYPE_CHECKING:
    import numpy as np


class EnLyapParams(FloatRecord):
    """Constants of the endemic function, in the normal form lambda1 = lambda2 = 1."""

    lambda1 = lambda2 = 1.0  # class constants, not fields
    lambda_hat2: float
    k: float
    lambda3: float
    l_bar: float
    delta: float

    def _check(self):
        if not self.lambda_hat2 > 0.0:
            raise ValueError("lambda_hat2 must be positive")
        if not (0.0 < self.k < 1.0):
            raise ValueError("k must lie in (0, 1)")
        if not self.lambda3 > 0.0:
            raise ValueError("lambda3 must be positive")
        if not self.l_bar > 0.0:
            raise ValueError("l_bar must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    @property
    def lam0(self) -> float:
        return 1.0 - self.k


#: the region labels by code: code 0..5 is region A..F
REGION_LABELS = "ABCDEF"


def _xhat(p: ModelParams) -> tuple:
    q = model.endemic_eq(p)
    return q.s, q.i, q.r


# ---------------------------------------------------------------------------
# monotone helper maps: each formula once, over a Python float or an array
# ---------------------------------------------------------------------------

def _real(s):
    """A real scalar as a Python float, anything else as a float array."""
    if isinstance(s, (int, float)):
        return float(s)
    import numpy as np
    return np.asarray(s, dtype=float)


def _any(mask) -> bool:
    """Whether a bool, or any entry of a boolean array, is true."""
    return bool(mask.any()) if hasattr(mask, "any") else mask


def _root(b, c):
    """sqrt(b*b + c), with b and c scaled by |b| where |b| > 1e150 (b*b would overflow)."""
    if isinstance(b, float) and abs(b) <= 1e150:
        return math.sqrt(b * b + c)
    import numpy as np
    s = np.where(np.abs(b) > 1e150, np.abs(b), 1.0)
    return s * np.sqrt((b / s) * (b / s) + c / s / s)


def _where(cond, a, b):
    """a where cond holds, else b; one branch for a bool, np.where for arrays."""
    if isinstance(cond, bool):
        return a if cond else b
    import numpy as np
    return np.where(cond, a, b)[()]


def _finite(name: str, f, lp: EnLyapParams, xh: tuple, s):
    """f(lp, xh, s), the map `name` at the level(s) s; DomainError naming the
    first level where it is not finite (theta's pole, omega's D overflowing)."""
    if isinstance(s, float) and abs(s) <= 1e150:  # where `_root` runs without numpy
        try:
            return f(lp, xh, s)
        except ZeroDivisionError:  # theta at the pole
            bad = [s]
    else:
        import numpy as np
        with np.errstate(all="ignore"):
            value = f(lp, xh, s)
        bad = np.ravel(s)[~np.isfinite(np.ravel(value))]
        if not len(bad):
            return value
    raise DomainError(f"{name} has no finite value at level {float(bad[0])!r}")


def _theta(xh: tuple, s):
    """x2h*s/(x1h+s) without the domain check."""
    return xh[1] * s / (xh[0] + s)


def _theta_inv(xh: tuple, s):
    """x1h*s/(x2h-s) without the domain check."""
    return xh[0] * s / (xh[1] - s)


def _omega_inv(lp: EnLyapParams, xh: tuple, v):
    """The larger root of omega(s) = v; see `omega_inv`."""
    x1h, x2h = xh[0], xh[1]
    b = x1h + lp.lambda_hat2 * x2h - v
    sq = _root(b, 4.0 * v * x1h)
    return _where(b > 0.0, 2.0 * v * x1h / (abs(b) + sq), (sq - b) / 2.0)


def _p_fun(lp: EnLyapParams, xh: tuple, s):
    """lam0 * theta(omega^{-1}(s))."""
    return lp.lam0 * _theta(xh, _omega_inv(lp, xh, s))


def _p_inv(lp: EnLyapParams, xh: tuple, s):
    """theta^{-1}(s/lam0) + lambda_hat2*s/lam0 without the domain check."""
    r = s / lp.lam0
    return _theta_inv(xh, r) + lp.lambda_hat2 * r


def _nu(lp: EnLyapParams, xh: tuple, s):
    """lambda_hat2*s - P(lam0*s)."""
    return lp.lambda_hat2 * s - _p_fun(lp, xh, lp.lam0 * s)


def theta(p: ModelParams, s):
    """x2h*s/(x1h+s); strictly increasing on (-x1h, inf) with range (-inf, x2h)."""
    xh, s = _xhat(p), _real(s)
    if _any(s <= -xh[0]):
        raise DomainError("theta needs s > -x1h")
    return _theta(xh, s)


def theta_inv(p: ModelParams, s):
    """Exact inverse x1h*s/(x2h-s), defined for s < x2h."""
    xh, s = _xhat(p), _real(s)
    if _any(s >= xh[1]):
        raise DomainError("theta_inv needs s < x2h")
    return _theta_inv(xh, s)


def omega(p: ModelParams, lp: EnLyapParams, s):
    return _real(s) + lp.lambda_hat2 * theta(p, s)


def omega_inv(p: ModelParams, lp: EnLyapParams, v):
    """Closed-form inverse of omega, onto (-x1h, inf).

    omega(s) = v is the quadratic s^2 + b*s - v*x1h = 0 with
    b = x1h + lambda_hat2*x2h - v; it is negative at s = -x1h, so one
    root lies on each side of the pole and the larger is wanted.  That root
    is 2*v*x1h/(b + sqrt(D)) when b > 0 and (sqrt(D) - b)/2
    otherwise, neither of which subtracts nearly equal numbers; b is |b| in
    the first, so the branch computed and dropped never divides by 0.  `_root`
    scales D where |b| > 1e150, so the root of a huge level stays finite;
    past about +-2e305 none is, and the level is a DomainError.
    """
    return _finite("omega_inv", _omega_inv, lp, _xhat(p), _real(v))


def p_fun(p: ModelParams, lp: EnLyapParams, s):
    """P(s) = lam0 * theta(omega^{-1}(s)); increasing, range (-inf, lam0*x2h)."""
    return _finite("p_fun", _p_fun, lp, _xhat(p), _real(s))


def p_inv(p: ModelParams, lp: EnLyapParams, s):
    """Closed-form inverse of P, defined for s < lam0*x2h."""
    xh, s = _xhat(p), _real(s)
    if _any(s >= lp.lam0 * xh[1]):
        raise DomainError("p_inv needs s < lam0*x2h")
    return _p_inv(lp, xh, s)


def p_inv_prime(p: ModelParams, lp: EnLyapParams, s):
    """(P^{-1})'(s) > lambda_hat2/lam0 for s < lam0*x2h."""
    x1h, x2h, _ = _xhat(p)
    lam0 = lp.lam0
    d = lam0 * x2h - _real(s)
    return (lam0 ** 2 * x1h * x2h / (d * d) + lp.lambda_hat2) / lam0


def nu_fun(p: ModelParams, lp: EnLyapParams, s):
    """Boundary curve between the two regions left of the equilibrium."""
    return _finite("nu_fun", _nu, lp, _xhat(p), _real(s))


# ---------------------------------------------------------------------------
# feasibility of the constants
# ---------------------------------------------------------------------------

def _require_endemic_regime(p: ModelParams) -> None:
    if model.classify_regime(p) is not Regime.ENDEMIC_THEOREM_APPLIES:
        raise RegimeError(
            f"endemic construction needs R0 > gamma/mu + 2 "
            f"(R0={model.r0_hat(p):.6g}, gamma/mu+2={p.gamma / p.mu + 2.0:.6g})")


def k0_bound(p: ModelParams, l_bar: float, lambda1: float = 1.0,
             lambda2: float = 1.0) -> float:
    """Upper bound k0 on the slope parameter k, given the level budget l_bar."""
    _require_endemic_regime(p)
    r0 = model.r0_hat(p)
    term1 = 1.0 - (p.gamma + p.mu) / (p.mu * (r0 - 1.0))
    ti = theta_inv(p, -l_bar / lambda2)
    term2 = lambda2 * ti / (lambda1 * ti - l_bar)
    return min(term1, term2)


def spread(p: ModelParams, lp: EnLyapParams) -> float:
    """x2h - theta(omega^{-1}(l_bar)) = x2h - P(l_bar)/lam0: the infected
    count at the lower edge x2t = -P(l_bar)/lam0 of the sublevel set."""
    return _xhat(p)[1] - theta(p, omega_inv(p, lp, lp.l_bar))


def lambda3_bound_terms(p: ModelParams, lp: EnLyapParams) -> tuple:
    """The four admissibility ceilings for lambda3, in declaration order."""
    r0 = model.r0_hat(p)
    t1 = lp.k * p.mu * (r0 - 1.0) * (1.0 - lp.k) / p.gamma
    t2 = lp.lambda_hat2 ** 2 / (1.0 - lp.k)
    t3 = p.beta * lp.lambda_hat2 * spread(p, lp) / p.gamma
    t4 = lp.lambda_hat2
    return t1, t2, t3, t4


def lambda3_bound(p: ModelParams, lp: EnLyapParams) -> float:
    """min of the four admissibility ceilings; lambda3 itself is ignored."""
    return min(lambda3_bound_terms(p, lp))


def lambda3_default(p: ModelParams, lp: EnLyapParams) -> float:
    """Half of the tightened ceiling min(t1, t2, k*t3, t4).

    The extra factor k on the third term keeps the certified region-E
    decrease constant strictly positive (the un-scaled ceiling only makes it
    nonnegative in the limit).  InfeasibleOverride when the ceiling is not
    positive: a huge l_bar or beta rounds the spread, and with it t3, to 0.
    """
    t1, t2, t3, t4 = lambda3_bound_terms(p, lp)
    ceiling = min(t1, t2, lp.k * t3, t4)
    if not ceiling > 0.0:
        raise InfeasibleOverride(f"no admissible lambda3: the ceiling {ceiling:.3g} is not positive")
    return 0.5 * ceiling


Cond50Result = namedtuple("Cond50Result", "passed worst_margin argmin_l samples")


@lru_cache(maxsize=64)
def check_condition_50(p: ModelParams, lp: EnLyapParams) -> Cond50Result:
    """Certify nu(L/lam0) <= theta_inv(-L/lam0) on an even grid of [0, l_bar]
    (2048 intervals).

    Both sides vanish at L = 0, so the reported worst margin legitimately
    touches zero at that endpoint; interior margins are what feasibility
    hinges on.  The grid equals numpy's `linspace(0, l_bar, 2049)` point for
    point, and the worst margin is its first least one (a NaN first).  Both
    arguments are frozen, so each pair is evaluated once.
    """
    step = lp.l_bar / 2048
    L = [i * step for i in range(2048)] + [lp.l_bar]
    xh, lam0 = _xhat(p), lp.lam0
    passed, worst, j = True, math.inf, 0
    for i, level in enumerate(L):
        s = level / lam0
        lhs, rhs = _nu(lp, xh, s), _theta_inv(xh, -s)
        margin = rhs - lhs
        if not margin >= -1e-9 * (1.0 + abs(rhs) + abs(lhs)):
            passed = False
        if worst == worst and not margin >= worst:
            worst, j = margin, i
    return Cond50Result(passed, worst, L[j], len(L))


def en_params_from(p: ModelParams, l_bar: float, lambda_hat2: float, k: float,
                   lambda3: Optional[float] = None,
                   delta: Optional[float] = None) -> EnLyapParams:
    """Build validated constants from explicit choices, with delta = DELTA
    unless given.

    Raises InfeasibleOverride when l_bar, lambda_hat2 or delta is out of
    range, or k, lambda3 or the (l_bar, lambda_hat2) pair fails its
    feasibility condition.
    """
    delta = _require_overrides(delta, l_bar=l_bar, lambda_hat2=lambda_hat2)
    k0 = k0_bound(p, l_bar)
    if not (0.0 < k < k0):
        raise InfeasibleOverride(f"k={k!r} outside (0.0, k0={k0!r})")
    provisional = EnLyapParams(lambda_hat2, k, 1e-300, l_bar, delta)
    bound = lambda3_bound(p, provisional)
    if lambda3 is None:
        lambda3 = lambda3_default(p, provisional)
    elif not (0.0 < lambda3 < bound):
        raise InfeasibleOverride(f"lambda3={lambda3!r} outside (0.0, {bound!r})")
    lp = provisional.replace(lambda3=lambda3)
    res = check_condition_50(p, lp)
    if not res.passed:
        raise InfeasibleOverride(
            f"condition (50) fails: margin {res.worst_margin:.3g} at L={res.argmin_l:.6g}")
    return lp


def select_en_params(p: ModelParams, l_bar: float,
                     delta: Optional[float] = None) -> EnLyapParams:
    """Geometric shrink search for feasible constants under the level budget
    l_bar, at most 64 rounds: lambda_hat2 (and, on a slower schedule, k) is
    halved until condition (50) passes.  delta defaults to DELTA.
    Raises InfeasibleOverride for l_bar <= 0, delta outside (0, 1) or no
    admissible lambda3 (`lambda3_default`).
    """
    _require_endemic_regime(p)
    l_bar = float(l_bar)
    delta = _require_overrides(delta, l_bar=l_bar)
    k0 = k0_bound(p, l_bar)
    if not k0 > 0.0:
        # R0 within rounding of gamma/mu + 2: term1 of k0 rounds to 0
        raise NoConvergence(f"no admissible slope k: k0={k0:.3g} <= 0")
    lam_h2 = 0.1
    k_frac = 0.9
    for it in range(64):
        provisional = EnLyapParams(lam_h2, k_frac * k0, 1e-300, l_bar, delta)
        lp = provisional.replace(lambda3=lambda3_default(p, provisional))
        if check_condition_50(p, lp).passed:
            return lp
        lam_h2 *= 0.5
        if (it + 1) % 4 == 0:
            k_frac *= 0.5
    raise NoConvergence("feasibility search exhausted its iteration budget")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

#: P^{-1} arguments are clipped this factor below the pole lam0*x2h
_POLE_CLIP = 1.0 - 1e-15


def _curved(codes):
    """True for the regions C, D and E (codes 2..4), whose V12 is P^{-1} of
    the region's linear form."""
    return (2 <= codes) & (codes <= 4)


def _region_forms(lp: EnLyapParams) -> np.ndarray:
    """Linear form (c1, c2) of each region A..F in (x1t, x2t).

    V12 = c1*x1t + c2*x2t in A, B and F, and P^{-1}(c1*x1t + c2*x2t) in C, D
    and E; the gradient of V12 is (c1, c2), times (P^{-1})' in C, D and E.
    """
    import numpy as np
    lam0, lh2 = lp.lam0, lp.lambda_hat2
    return np.array([[1.0, 1.0], [0.0, lam0], [-1.0, lh2],
                     [-1.0, -1.0], [0.0, -lam0], [1.0, -lh2]])


def en_region_v12(p: ModelParams, lp: EnLyapParams, code: int, x1t, x2t):
    """V12 by the formula of region `code` (0..5 for A..F) wherever the points
    lie: the region's linear form, taken through P^{-1} only in C, D and E,
    its argument clipped just below the pole."""
    import numpy as np
    xh = _xhat(p)
    c1, c2 = _region_forms(lp)[code]
    v12 = c1 * x1t + c2 * x2t
    if _curved(code):
        v12 = _p_inv(lp, xh, np.minimum(v12, lp.lam0 * xh[1] * _POLE_CLIP))
    return v12


def _region_select(p: ModelParams, lp: EnLyapParams, x1t, x2t) -> tuple:
    """Per point: the first region (0..5 for A..F) whose formula is largest,
    its V12, and the largest linear form of C, D and E; P^{-1} increases, so
    that form is the one P^{-1} argument, and C, D and E tie by their forms."""
    import numpy as np
    xh = _xhat(p)
    a, b, c, d, e, f = (c1 * x1t + c2 * x2t for c1, c2 in _region_forms(lp).tolist())
    arg, curved = _first_max((c, d, e), (2, 3, 4))
    pinv = _p_inv(lp, xh, np.minimum(arg, lp.lam0 * xh[1] * _POLE_CLIP))
    v12, codes = _first_max((a, b, pinv, f), (0, 1, curved, 5))
    return codes, v12, arg


def en_region_terms(p: ModelParams, lp: EnLyapParams, X: np.ndarray) -> tuple:
    """Per point in H: the region code (0..5 for A..F), the P^{-1} argument of
    its region (0 outside C, D and E) and (P^{-1})' at that argument."""
    import numpy as np
    codes, _, arg = _region_select(p, lp, X[:, 0], X[:, 1])
    arg = np.where(_curved(codes), arg, 0.0)
    return codes, arg, p_inv_prime(p, lp, np.minimum(arg, lp.lam0 * _xhat(p)[1] * _POLE_CLIP))


def en_value_many(p: ModelParams, lp: EnLyapParams, X: np.ndarray,
                  l_cap: Optional[float] = None) -> np.ndarray:
    """Vectorised V over deviations X (n, 3); NaN outside the domain H.

    H is x2t > -x2h, x2t <= l_cap/(1 - k) (l_cap defaults to l_bar;
    `l_cap=np.inf` drops it, for points on the A/B vertex of the level-l_bar
    set and beyond) and every curved form below the pole lam0*x2h.  The
    formulas are certified only where condition (50) holds.
    """
    import numpy as np
    x2t, x2h = X[:, 1], _xhat(p)[1]
    cap = (lp.l_bar if l_cap is None else l_cap) / (1.0 - lp.k)
    _, v12, arg = _region_select(p, lp, X[:, 0], x2t)
    ok = (x2t > -x2h) & (x2t <= cap) & (arg < lp.lam0 * x2h)
    return np.where(ok, v12 + lp.lambda3 * np.abs(X[:, 2]), np.nan)


def en_gradient_arrays(p: ModelParams, lp: EnLyapParams, X: np.ndarray) -> np.ndarray:
    """Per-point analytic gradient (n, 3); no boundary-band policing."""
    import numpy as np
    codes, _, dpinv = en_region_terms(p, lp, X)
    scale = np.where(_curved(codes), dpinv, 1.0)
    c = _region_forms(lp)[codes]
    g3 = np.where(X[:, 2] >= 0.0, lp.lambda3, -lp.lambda3)
    return np.stack([c[:, 0] * scale, c[:, 1] * scale, g3], axis=1)


def en_grad_dot_f_arrays(p: ModelParams, lp: EnLyapParams, X: np.ndarray,
                         u: float) -> np.ndarray:
    """grad V . f along the deviation dynamics for a batch of deviations."""
    q = model.endemic_eq(p)
    G = en_gradient_arrays(p, lp, X)
    f1, f2, f3 = model.rhs_arrays(p, q.s + X[:, 0], q.i + X[:, 1], q.r + X[:, 2],
                                  p.b_hat + u)
    return G[:, 0] * f1 + G[:, 1] * f2 + G[:, 2] * f3


def in_sublevel_many(p: ModelParams, lp: EnLyapParams, X: np.ndarray, L: float) -> np.ndarray:
    """Membership of deviations X (n, 3) in the closed sublevel set {V <= L}
    within the orthant shift; DomainError for L outside [0, l_bar]."""
    if not (0.0 <= L <= lp.l_bar * (1.0 + 1e-12)):
        raise DomainError("L must lie in [0, l_bar]")
    import numpy as np
    x1h, x2h, x3h = _xhat(p)
    phys = (X[:, 0] >= -x1h) & (X[:, 1] >= -x2h) & (X[:, 2] >= -x3h)
    v = en_value_many(p, lp, X)
    return phys & np.isfinite(v) & (v <= L)


def en_level_hexagon(p: ModelParams, lp: EnLyapParams, level: float) -> Optional[list]:
    """The level set {V12 = level} as its six vertices, (x1t, x2t) float
    tuples in the order F/A, A/B, B/C, C/D, D/E, E/F of the region
    boundaries they lie on, or None for level <= 0.  V12 is linear or P^{-1}
    of a linear form in each region, so the set is straight between them:
    with P = P(level),

        F/A (level, 0)                  A/B (-k*level/lam0, level/lam0)
        B/C (lambda_hat2*level/lam0 - P, level/lam0)
        C/D (-P, 0)                     D/E (k*P/lam0, -P/lam0)
        E/F (theta^{-1}(P/lam0), -P/lam0).

    The partition into regions, and with it the hexagon, holds where
    condition (50) does, up to l_bar.
    """
    if level <= 0.0:
        return None
    top, P = level / lp.lam0, p_fun(p, lp, level)
    bottom = P / lp.lam0
    return [(level, 0.0), (-lp.k * top, top),
            (lp.lambda_hat2 * top - P, top), (-P, 0.0),
            (lp.k * bottom, -bottom), (_theta_inv(_xhat(p), bottom), -bottom)]


def en_level_chord(p: ModelParams, lp: EnLyapParams, level: float, c: float) -> Optional[tuple]:
    """The ends (x1_left, x1_right) of {V12 <= level} on the line x2t = c, or
    None unless c lies strictly between the hexagon's bottom and top.  The
    chains B/C -> C/D -> D/E and E/F -> F/A -> A/B of `en_level_hexagon` are
    monotone in x2t, so each end is one `numpy.interp`."""
    hexagon = en_level_hexagon(p, lp, level)
    if hexagon is None or not hexagon[4][1] < c < hexagon[1][1]:
        return None
    import numpy as np
    return tuple(float(np.interp(c, [hexagon[i][1] for i in chain], [hexagon[i][0] for i in chain]))
                 for chain in ((4, 3, 2), (5, 0, 1)))


def _roots_in(coeffs, S: float, hi: float) -> np.ndarray:
    """w = S*(1 - t) at the real roots t of a polynomial, kept in (0, hi)."""
    import numpy as np
    w = S * (1.0 - np.roots(coeffs).real)
    return w[(w > 0.0) & (w < hi)]


def en_eta(p: ModelParams, lp: EnLyapParams, l_total: float) -> float:
    """Worst-case split of a level budget between the planar and x3 parts.

    With w = P(V12) and V3 = l_total - V12 this is the minimum over
    w in [0, P(l_total)] of  w + lambda3*(l_total - P^{-1}(w))/(P^{-1})'(w),
    taken at the two ends and at the stationary points in between: the real
    roots in t = 1 - w/S (S = lam0*x2h) of the quartic
    (1 - lambda3)*(1 + r*t^2)^2 - 2*lambda3*(r*t^2 + (1 - r + l_total/x1h)*t - 1).
    """
    if l_total < 0.0:
        raise DomainError("l_total must be nonnegative")
    if l_total == 0.0:
        return 0.0
    import numpy as np
    x1h, x2h, _ = xh = _xhat(p)
    S, lam3 = lp.lam0 * x2h, lp.lambda3
    r = lp.lambda_hat2 * x2h / x1h
    pl = p_fun(p, lp, l_total)
    quartic = [(1.0 - lam3) * r * r, 0.0, 2.0 * r * (1.0 - 2.0 * lam3),
               -2.0 * lam3 * (1.0 - r + l_total / x1h), 1.0 + lam3]
    w = np.concatenate([[0.0], _roots_in(quartic, S, pl)])
    obj = w + lam3 * (l_total - _p_inv(lp, xh, w)) / p_inv_prime(p, lp, w)
    return float(min(obj.min(), pl))


def en_eta_inv(p: ModelParams, lp: EnLyapParams, y: float) -> float:
    """Smallest level with eta(level) >= y; inf when y reaches sup eta = S.

    On [0, P(L)] the objective of `en_eta` is at least w, so it can fall
    below y only at some w < y, and there it is >= y exactly when
    L >= g(w) = P^{-1}(w) + (y - w)*(P^{-1})'(w)/lambda3; since g(y) =
    P^{-1}(y), the condition also forces y <= P(L).  Hence eta(L) >= y iff
    L >= max g over [0, y], taken at the two ends and at the real roots in
    t = 1 - w/S of the cubic (lambda3 - 1)*r*t^3 + (1 + lambda3)*t + 2*(y/S - 1).
    """
    x1h, x2h, _ = xh = _xhat(p)
    S, lam3 = lp.lam0 * x2h, lp.lambda3
    if y <= 0.0:
        return 0.0
    if y >= S:
        return math.inf
    import numpy as np
    r = lp.lambda_hat2 * x2h / x1h
    cubic = [(lam3 - 1.0) * r, 0.0, 1.0 + lam3, 2.0 * (y / S - 1.0)]
    w = np.concatenate([[0.0, y], _roots_in(cubic, S, y)])
    g = _p_inv(lp, xh, w) + (y - w) * p_inv_prime(p, lp, w) / lam3
    return float(g.max())


def sample_sublevel(lyap, n: int, seed: int, level_frac: float = 1.0,
                    x3_moderate: bool = False) -> np.ndarray:
    """Rejection-sample n deviations from the sublevel set {V <= level_frac*l_bar}.

    Half of the x3t draws are moderate (within a few x3h), half sweep the
    full admissible magnitude range log-uniformly, since lambda3 is small and
    the set is extremely elongated in the x3 direction.  Each round draws
    max(4*(n - k), 20000) rows, k being the rows kept so far, and keeps the
    first of them inside the set, up to n in all.  It tests them one band
    at a time and none after the band that completes the n, so the sample
    does not depend on the band size.
    """
    import numpy as np
    p, lp = lyap.p, lyap.lp
    rng = np.random.default_rng(seed)
    q = lyap.equilibrium
    level = level_frac * lp.l_bar
    pl = p_fun(p, lp, lp.l_bar)
    lo1 = -(pl + lp.lambda_hat2 * q.i) - 1.0
    hi1 = lp.l_bar + 1.0
    lo2 = -pl / lp.lam0 - 1.0
    hi2 = lp.l_bar / lp.lam0 + 1.0
    out = []
    got = 0
    for _ in range(400):
        m = max(4 * (n - got), 20000)
        X = np.empty((m, 3))
        X[:, 0] = rng.uniform(lo1, hi1, m)
        X[:, 1] = rng.uniform(max(lo2, -q.i * 0.999), hi2, m)
        if x3_moderate:
            X[:, 2] = rng.uniform(-0.8 * q.r, 2.0 * q.r, m)
        else:
            # a log-uniform magnitude with a random sign, clipped at the
            # physical boundary, drawn in place; half of the rows then take
            # a moderate uniform draw
            np.power(10.0, rng.uniform(-3.0, np.log10(level / lp.lambda3), m), out=X[:, 2])
            np.multiply(rng.choice([-1.0, 1.0], m), X[:, 2], out=X[:, 2])
            half = rng.random(m) < 0.5
            np.clip(X[:, 2], -0.999 * q.r, None, out=X[:, 2])
            X[half, 2] = rng.uniform(-0.9 * q.r, 3.0 * q.r, m)[half]
        keep, kept = [], got
        for a, b in bands(m):  # only until the round holds the rows still wanted
            keep.append(in_sublevel_many(p, lp, X[a:b], level))
            kept += int(np.count_nonzero(keep[-1]))
            if kept >= n:
                break
        out.append(X[np.flatnonzero(np.concatenate(keep))[:n - got]])  # the first rows kept
        got += len(out[-1])
        if got >= n:
            break
    if got < n:
        raise NoConvergence(f"sublevel sampling kept {got} of the {n} requested points "
                            f"in 400 rounds")
    return np.vstack(out)


class EndemicLyapunov:
    """Bound (model, params) pair with vectorised evaluation helpers."""

    kind = EquilibriumKind.ENDEMIC

    def __init__(self, p: ModelParams, lp: EnLyapParams):
        _require_endemic_regime(p)
        self.p = p
        self.lp = lp
        self.equilibrium = model.endemic_eq(p)
        self.invariance_level = lp.l_bar  # ISS checks also test forward invariance below it

    def value_many(self, X: np.ndarray) -> np.ndarray:
        return en_value_many(self.p, self.lp, X)

    def value_of_states(self, S: np.ndarray) -> np.ndarray:
        q = self.equilibrium.as_array()
        return self.value_many(S - q[None, :])

    def boundaries(self, x2t) -> tuple:
        """The x1t of the two region boundaries that cross the line x2t (a
        float or an array): the straight one -k*x2t (A/B above x2t = 0, D/E
        below) and the curved one, nu(x2t) (B/C) for x2t >= 0 and
        theta^{-1}(-x2t) (E/F) below, its argument clipped just below the
        pole x2h."""
        import numpy as np
        curve = np.where(x2t >= 0.0, nu_fun(self.p, self.lp, np.maximum(x2t, 0.0)),
                         theta_inv(self.p, np.minimum(-x2t, _xhat(self.p)[1] * _POLE_CLIP)))
        return -self.lp.k * x2t, curve

    def near_boundary(self, X: np.ndarray) -> np.ndarray:
        """True where a point lies within the band BOUNDARY_BAND*(1+|X|) of a
        region boundary or of the x3t kink."""
        import numpy as np
        x1t, x2t, x3t = X[:, 0], X[:, 1], X[:, 2]
        straight, curve = self.boundaries(x2t)
        dist = np.minimum.reduce([np.abs(x2t), np.abs(x1t - straight), np.abs(x3t),
                                  np.abs(x1t - curve)])
        return dist <= BOUNDARY_BAND * (1.0 + np.linalg.norm(X, axis=1))

    def grad_dot_f(self, X: np.ndarray, u: float) -> np.ndarray:
        return en_grad_dot_f_arrays(self.p, self.lp, X, u)

    def rate_constants(self) -> tuple:
        """a_B of region B's rate, and `spread` and gamma_Ek (which keeps the
        absorbed x2t cross term accounted for) of region E's."""
        p, lp, sp = self.p, self.lp, spread(self.p, self.lp)
        gamma_ek = 1.0 - lp.lambda3 * p.gamma / (lp.lambda_hat2 * lp.k * sp * p.beta)
        a_b = min(lp.k * p.mu * (model.r0_hat(p) - 1.0) - lp.lambda3 * p.gamma / lp.lam0, p.mu)
        return a_b, sp, gamma_ek

    def decrease_rate(self, X: np.ndarray) -> tuple:
        """Per row of X: the region code (0..5 for A..F) and the rate that
        -grad V . f exceeds with u = 0: mu*V in A and F, a_B*V in B,
        mu*((P^{-1})'*arg + V3) in C and D, and in E
        (P^{-1})'*arg*k*beta*spread*gamma_Ek + mu*V3, or 0 if gamma_Ek <= 0
        (`rate_constants`)."""
        import numpy as np
        p, lp, v, (a_b, sp, gamma_ek) = self.p, self.lp, self.value_many(X), self.rate_constants()
        (codes, arg, qd), v3 = en_region_terms(p, lp, X), lp.lambda3 * np.abs(X[:, 2])
        rate = np.where(np.isin(codes, [0, 5]), p.mu * v, 0.0)
        rate = np.where(codes == 1, a_b * v, rate)
        rate = np.where(np.isin(codes, [2, 3]), p.mu * (qd * arg + v3), rate)
        rate_e = qd * arg * lp.k * p.beta * sp * gamma_ek + p.mu * v3 if gamma_ek > 0.0 else 0.0
        return codes, np.where(codes == 4, rate_e, rate)

    def iss_decrease(self, X: np.ndarray, u_values) -> tuple:
        """Per input u of u_values, where an ISS hypothesis holds, per row of
        X; and the rate that -grad V . f under each such u exceeds there.  In
        A and F: u <= delta*mu*V and (1-delta)*mu*V; in C and D:
        -u <= delta*mu*(arg + V3/(P^{-1})'(arg)), which the eta-based
        hypothesis implies, and (1-delta)*mu*((P^{-1})'*arg + V3).  V, the
        regions and both bounds are evaluated once for all the inputs."""
        import numpy as np
        p, lp, v = self.p, self.lp, self.value_many(X)
        (codes, arg, qd), v3 = en_region_terms(p, lp, X), lp.lambda3 * np.abs(X[:, 2])
        af, cd = np.isin(codes, [0, 5]), np.isin(codes, [2, 3])
        bound_af, bound_cd = lp.delta * p.mu * v, lp.delta * p.mu * (arg + v3 / qd)
        rate = np.where(af, (1.0 - lp.delta) * p.mu * v, (1.0 - lp.delta) * p.mu * (qd * arg + v3))
        return [af & (u <= bound_af) | cd & (-u <= bound_cd) for u in u_values], rate

    def admissible_u(self) -> tuple:
        """Open admissible perturbation interval around the nominal newborn rate,
        as Python floats (numpy-scalar inputs would slow the ISS batch's float rows)."""
        p, lp = self.p, self.lp
        return -lp.delta * p.mu * p_fun(p, lp, lp.l_bar), lp.delta * p.mu * lp.l_bar

    def admits(self, u_pos: float, u_neg: float) -> bool:
        """Inputs within [-u_neg, u_pos] lie in the open admissible range."""
        lo, hi = self.admissible_u()
        return lo < -u_neg and u_pos < hi

    def chi_signed(self, u_pos: float, u_neg: float) -> float:
        """Level threshold above which decrease is certified for inputs
        within [-u_neg, u_pos].

        The linear branch handles inputs pushing outward (u > 0) and the
        eta-branch inward ones (u < 0); capped at l_bar, where the
        certificate saturates into plain forward invariance.
        """
        scale = 1.0 / (self.lp.delta * self.p.mu)
        level = scale * max(u_pos, 0.0)
        if u_neg > 0.0:
            level = max(level, en_eta_inv(self.p, self.lp, scale * u_neg))
        return min(level, self.lp.l_bar)

    def start_states(self, n: int, seed: int) -> np.ndarray:
        """n seeded states in the sublevel set of 0.95*l_bar, moderate in x3t."""
        devs = sample_sublevel(self, n, seed, level_frac=0.95, x3_moderate=True)
        return devs + self.equilibrium.as_array()[None, :]

    def default_window(self, plane) -> tuple:
        """1.2 times the reach of the l_bar sublevel set along each free
        coordinate, x3t starting at the physical boundary -x3h."""
        l_bar, lam0 = self.lp.l_bar, self.lp.lam0
        reach = p_fun(self.p, self.lp, l_bar)
        if plane[0] == "x3t":
            free = (-1.2 * reach / lam0, 1.2 * l_bar / lam0)
        else:
            free = (-self.equilibrium.r, 1.2 * l_bar / self.lp.lambda3)
        return ((-1.2 * reach, 1.2 * l_bar), free)

    def default_levels(self) -> list:
        """Five levels up to l_bar; (20, 100, 180, 260, 340) at l_bar = 340."""
        return [self.lp.l_bar * n / 17.0 for n in (1, 5, 9, 13, 17)]

    def level_ring(self, level, plane, window, n):
        """The level set {V = level} on `plane` as one closed polyline (its
        first vertex repeated), a list of (u, v) float tuples in the plane's
        free coordinates, or None where the plane misses the level or level
        is 0.

        On x3t = c it is the hexagon of V12 = level - lambda3*|c|.  On x2t = c
        it is the graph x3t = (level - V12(x1t, c))/lambda3 over the chord of
        `en_level_chord` and its mirror below x3t = 0.  The graph's abscissae
        are the `linspace` of the window's x1t range in n points, cut to the
        chord, plus the chord's ends, the region boundaries on x2t = c
        (`boundaries`), and the points where the graph
        meets the window's x3t edges, so the window cuts it at vertices.

        DomainError for a level outside [0, l_bar], where condition (50)
        certifies the regions, or a plane or window reaching x2t <= -x2h.
        """
        p, lp = self.p, self.lp
        x2t_min = plane[1] if plane[0] == "x2t" else window[1][0]
        if x2t_min <= -self.equilibrium.i:
            raise DomainError("level-set plane or window exits the domain: x2t <= -x2hat")
        top = lp.l_bar * (1.0 + 1e-12)
        if not 0.0 <= level <= top:
            raise DomainError(f"level {level!r} outside the budget [0.0, l_bar*(1+1e-12)={top!r}]")
        c = plane[1]
        if plane[0] == "x3t":
            hexagon = en_level_hexagon(p, lp, level - lp.lambda3 * abs(c))
            return None if hexagon is None else hexagon + hexagon[:1]
        chord = en_level_chord(p, lp, level, c)
        if chord is None:
            return None
        import numpy as np  # the x2t-plane graph alone evaluates V on arrays
        lo, hi = chord
        xs = np.linspace(window[0][0], window[0][1], n)
        edges = [en_level_chord(p, lp, level - lp.lambda3 * abs(v), c) for v in window[1]]
        xs = np.concatenate([xs, self.boundaries(c), *[e for e in edges if e is not None]])
        xs = np.unique(np.concatenate([[lo, hi], xs[(lo < xs) & (xs < hi)]]))
        X = np.column_stack([xs, np.full(len(xs), c), np.zeros(len(xs))])
        h = np.maximum((level - self.value_many(X)) / lp.lambda3, 0.0)
        h[[0, -1]] = 0.0
        ring = np.vstack([np.column_stack([xs, h]), np.column_stack([xs, -h])[-2:0:-1],
                          [[lo, 0.0]]])
        return list(map(tuple, ring.tolist()))

    def params_report(self) -> dict:
        """Extra output of `sirlyap params`: k0, lambda3 ceiling, (50) margin, input range."""
        p, lp = self.p, self.lp
        res = check_condition_50(p, lp)
        return {"feasibility": {
            "k0": k0_bound(p, lp.l_bar),
            "lambda3_bound": lambda3_bound(p, lp),
            "cond50_margin": res.worst_margin,
            "cond50_argmin_l": res.argmin_l,
            "input_range": list(self.admissible_u()),
        }}

"""Numerical certification harness.

Every check returns a CheckResult whose `worst_margin` is oriented so that
larger is better and `passed` means worst_margin >= -tolerance for the
check's declared tolerance.  Sampling is driven by an explicit seed, so a
rerun with the same seed and grid reproduces the margins bit for bit.

The two trajectory claims, V decreasing along nominal trajectories and V
staying below the ISS gain of the input b_hat + u, are flows of one vector
field that differ only in their input.  `run_certification` steps both as
one integrate_batch, the nominal starts and one row per ISS signal, through
`_trajectory_checks`; `check_trajectory_monotonicity` and `check_iss_bound`
each run that path with the other half empty.

Certify's two suites live here, one per equilibrium kind, each with its
checks in report order and the size of its ISS signals; `run_certification`
picks one by `lyap.kind`.  The Lyapunov modules do not import this one.
The nesting check takes its pairs from the function's own constants.
"""
from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from . import flow, lyap_df, lyap_en, model, ode
from .bands import DEFAULT_SEED, GRID_N, N_SAMPLES, bands
from .errors import NoConvergence, RangeError
from .lyap_en import sample_sublevel
from .model import EquilibriumKind, ModelParams, Record, State

N_POINTWISE = 20_000     # cap on the pointwise ISS samples
N_STARTS = 50            # nominal-input trajectory starts
DT = 0.05                # RK4 step of every trajectory check
CONTINUITY_RTOL = 1e-9   # relative gap allowed between adjacent region formulas
EN_DECREASE_TOL = 1e-10  # margin tolerance of the two endemic sample checks


class CheckResult(Record):
    name: str
    passed: bool
    worst_margin: float
    worst_location: object = None
    samples: int = 0
    details: dict = {}

    def to_dict(self) -> dict:
        return _jsonable({
            "name": self.name,
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_location": self.worst_location,
            "samples": int(self.samples),
            "details": self.details,
        })


class VerificationReport(Record):
    checks: list = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def save_json(self, path) -> None:
        with flow.text_file(path) as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def format_table(self) -> str:
        lines = [f"{'check':<42} {'pass':<6} {'worst margin':<14} location"]
        for c in self.checks:
            loc = "" if c.worst_location is None else str(c.worst_location)
            lines.append(f"{c.name:<42} {str(c.passed):<6} {c.worst_margin:<14.6g} {loc}")
        return "\n".join(lines)


def _jsonable(obj):
    """`obj` in standard JSON values: numpy values as Python ones, tuples as
    lists, and a non-finite float (no margin seen, an unbounded threshold)
    as None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _loc(X_row) -> list:
    return [float(v) for v in X_row]


def _decrease_margins(gf: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Normalised slack of grad V . f <= -rate per point; nonnegative where it holds."""
    return (-gf - rate) / (1.0 + np.abs(gf) + np.abs(rate))


# ---------------------------------------------------------------------------
# disease-free checks
# ---------------------------------------------------------------------------

def check_df_continuity(lyap, n: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    """The library's adjacent region formulas agree on both boundaries."""
    p, lp = lyap.p, lyap.lp
    rng = np.random.default_rng(seed)
    x1h = lyap.equilibrium.s
    half = n // 2
    # surface x1t = 0: formula A vs formula B
    x2 = rng.uniform(0.0, 3.0 * x1h, half)
    x3 = rng.uniform(0.0, 3.0 * x1h, half)
    va, vb, _ = lyap_df.df_region_values(lp, p, np.column_stack([np.zeros(half), x2, x3]))
    res1 = np.abs(va - vb) / (1.0 + np.abs(vb))
    # tilted surface: formula B vs formula C
    x2 = rng.uniform(0.0, 3.0 * x1h, n - half)
    x3 = rng.uniform(0.0, 3.0 * x1h, n - half)
    x1 = lyap_df.df_threshold(lp, p, x2, x3)
    _, vb, vc = lyap_df.df_region_values(lp, p, np.column_stack([x1, x2, x3]))
    res2 = np.abs(vb - vc) / (1.0 + np.abs(vb))
    worst = float(max(res1.max(initial=0.0), res2.max(initial=0.0)))
    return CheckResult("df_continuity", n > 0 and worst <= CONTINUITY_RTOL, -worst, None, n,
                       {"rtol": CONTINUITY_RTOL})


def check_df_positive_definite(lyap, n: int = 1000, seed: int = DEFAULT_SEED) -> CheckResult:
    rng = np.random.default_rng(seed)
    x1h = lyap.equilibrium.s
    X = np.column_stack([rng.uniform(-5.0 * x1h, 5.0 * x1h, n),
                         rng.uniform(0.0, 5.0 * x1h, n),
                         rng.uniform(0.0, 5.0 * x1h, n)])
    v = lyap.value_many(X)
    v0 = float(lyap.value_many(np.zeros((1, 3)))[0])
    ok = bool(n > 0 and v0 == 0.0 and np.all(v > 0.0))
    return CheckResult("df_positive_definite", ok, float(v.min(initial=math.inf)),
                       _loc(X[np.argmin(v)]) if n > 0 else None, n, {"value_at_zero": v0})


def _first_least(minima: list) -> tuple:
    """The first of the per-band (least margin, location) pairs whose margin
    is least, as np.argmin takes it over the bands joined: a NaN comes first.
    (inf, None) when no band saw a margin."""
    return minima[int(np.argmin([m for m, _ in minima]))] if minima else (math.inf, None)


def _least_iss_margin(lyap, bands_of_rows, u_values) -> tuple:
    """The first least decrease margin, its row with u appended, and the
    number of (row, u) pairs checked, over the inputs `u_values` in turn and
    the (X, keep) pairs of `bands_of_rows`: on each row that `keep` selects
    and `lyap.iss_decrease` claims for u, grad V . f under u against the
    certified rate, which no u changes.  (inf, None, 0) when no row is
    claimed."""
    minima = [[] for _ in u_values]  # per u, per band: the least margin and its location
    checked = 0
    for X, keep in bands_of_rows:
        hyps, rate = lyap.iss_decrease(X, u_values)
        for u, hyp, least in zip(u_values, hyps, minima):
            hyp = hyp & keep
            if not hyp.any():
                continue
            Xh = X[hyp]
            margin = _decrease_margins(lyap.grad_dot_f(Xh, u), rate[hyp])
            j = int(np.argmin(margin))
            least.append((margin[j], _loc(Xh[j]) + [float(u)]))
            checked += len(Xh)
    worst, worst_loc = _first_least([m for least in minima for m in least])
    return float(worst), worst_loc, checked


def check_df_grid_iss(lyap, n: int = GRID_N) -> CheckResult:
    """Grid certificate of the ISS decrease implication.

    On [-x1h, 3*x1h] x [0, 3*x1h]^2 minus the boundary band, wherever
    `lyap.iss_decrease` claims a row for u in {-b_hat, -b_hat/2, 0, b_hat,
    10*b_hat}, grad V . f must not exceed minus its certified rate, up to
    -1e-12 per unit scale.  The grid is built and evaluated one slab of the
    first axis at a time, about BAND_POINTS points each.
    """
    p, x1h = lyap.p, lyap.equilibrium.s
    u_values = [-p.b_hat, -p.b_hat / 2.0, 0.0, p.b_hat, 10.0 * p.b_hat]
    tol = 1e-12
    ax1 = np.linspace(-x1h, 3.0 * x1h, n)
    ax2 = np.linspace(0.0, 3.0 * x1h, n)
    # the "ij" grid over (ax1, ax2, ax2) in row order, one slab of ax1 at a
    # time written into a reused buffer
    slabs = bands(n, n * n)
    G = np.empty((slabs[0][1] * n * n, 3))
    G[:, 1] = np.tile(np.repeat(ax2, n), slabs[0][1])
    G[:, 2] = np.tile(ax2, slabs[0][1] * n)

    def grid():
        for a, b in slabs:
            X = G[:(b - a) * n * n]
            X[:, 0] = np.repeat(ax1[a:b], n * n)
            yield X, ~lyap.near_boundary(X)

    worst, worst_loc, checked = _least_iss_margin(lyap, grid(), u_values)
    return CheckResult("df_grid_iss", checked > 0 and worst >= -tol, worst, worst_loc, checked,
                       {"grid_n": n, "u_values": u_values, "tol": tol})


# ---------------------------------------------------------------------------
# endemic checks
# ---------------------------------------------------------------------------

def check_en_continuity(lyap, n_per_boundary: int = 200, seed: int = DEFAULT_SEED) -> CheckResult:
    """The library's adjacent region formulas agree on all five internal
    boundaries, the four off x2t = 0 where `lyap.boundaries` puts them."""
    p, lp = lyap.p, lyap.lp
    rng = np.random.default_rng(seed)
    x2h = lyap.equilibrium.i
    lam0 = lp.lam0
    A, B, C, D, E, F = range(6)

    def gap(r, s, x1, x2):
        """Relative gap between the V12 formulas of regions r and s."""
        vr = lyap_en.en_region_v12(p, lp, r, x1, x2)
        vs = lyap_en.en_region_v12(p, lp, s, x1, x2)
        return np.abs(vr - vs) / (1.0 + np.abs(vs))

    res = {}
    x2 = rng.uniform(0.0, lp.l_bar / lam0, n_per_boundary)
    res["A/B"] = gap(A, B, lyap.boundaries(x2)[0], x2)
    x2 = rng.uniform(0.0, lp.l_bar / lam0, n_per_boundary)
    res["B/C"] = gap(C, B, lyap.boundaries(x2)[1], x2)
    lo2 = -lyap_en.p_fun(p, lp, lp.l_bar) / lam0
    x2 = rng.uniform(lo2, 0.0, n_per_boundary)
    res["D/E"] = gap(D, E, lyap.boundaries(x2)[0], x2)
    x2 = rng.uniform(lo2, -1e-6 * x2h, n_per_boundary)
    res["E/F"] = gap(E, F, lyap.boundaries(x2)[1], x2)

    # along x2t = 0 the upper formulas (A, C) must meet the lower ones (F, D)
    half = n_per_boundary // 2
    x1 = rng.uniform(1e-9, lp.l_bar, half)
    x1n = rng.uniform(-(1.0 - lp.k) * x2h * 0.9, -1e-9, n_per_boundary - half)
    res["x2=0"] = np.concatenate([gap(F, A, x1, np.zeros(half)),
                                  gap(D, C, x1n, np.zeros(len(x1n)))])

    per_boundary = {k: float(r.max(initial=0.0)) for k, r in res.items()}
    which = max(per_boundary, key=per_boundary.get)
    worst, n = per_boundary[which], 5 * n_per_boundary
    return CheckResult("en_continuity", n > 0 and worst <= CONTINUITY_RTOL, -worst,
                       which if n > 0 else None, n,
                       {"rtol": CONTINUITY_RTOL, "per_boundary_max": per_boundary})


def check_en_sample_decrease(lyap, n: int = N_SAMPLES, seed: int = DEFAULT_SEED) -> CheckResult:
    """Strict decrease with u = 0 and the region rates of `lyap.decrease_rate`
    off the boundary band, checked one band of BAND_POINTS rows at a time."""
    X = sample_sublevel(lyap, n, seed)
    minima, gf_max, counts, checked = [], [], np.zeros(len(lyap_en.REGION_LABELS), dtype=int), 0
    strictly_negative = within_tol = True
    for a, b in bands(len(X)):
        Xb = X[a:b][~lyap.near_boundary(X[a:b])]
        if len(Xb) == 0:
            continue
        codes, rate = lyap.decrease_rate(Xb)
        gf = lyap.grad_dot_f(Xb, 0.0)
        margin = _decrease_margins(gf, rate)
        j = int(np.argmin(margin))
        minima.append((margin[j], _loc(Xb[j])))
        strictly_negative = strictly_negative and bool(np.all(gf < 0.0))
        within_tol = within_tol and bool(np.all(margin >= -EN_DECREASE_TOL))
        gf_max.append(gf.max())
        counts += np.bincount(codes, minlength=len(counts))
        checked += len(Xb)
    worst, worst_loc = _first_least(minima)
    details = {
        "tol": EN_DECREASE_TOL,
        "strictly_negative": strictly_negative,
        "max_grad_dot_f": float(np.max(gf_max, initial=-np.inf)),
        "gamma_ek": lyap.rate_constants()[2],
        "region_counts": {r: int(c) for r, c in zip(lyap_en.REGION_LABELS, counts)},
    }
    passed = checked > 0 and strictly_negative and within_tol
    return CheckResult("en_sample_decrease", passed, float(worst), worst_loc, checked, details)


def check_en_iss_pointwise(lyap, n: int = N_POINTWISE, seed: int = DEFAULT_SEED) -> CheckResult:
    """The pointwise ISS implications of `lyap.iss_decrease` under five
    inputs spanning 98% of the admissible range."""
    lo, hi = lyap.admissible_u()
    n_u = 5
    worst, worst_loc, checked = _least_iss_margin(lyap, [(sample_sublevel(lyap, n, seed), True)],
                                                  np.linspace(0.98 * lo, 0.98 * hi, n_u))
    passed = checked > 0 and worst >= -EN_DECREASE_TOL
    return CheckResult("en_iss_pointwise", passed, worst, worst_loc, checked,
                       {"n_u": n_u, "tol": EN_DECREASE_TOL})


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def _lyap_values_of_states(lyap, S: np.ndarray) -> np.ndarray:
    """V at states of shape (..., 3); RangeError for one outside the domain
    (for an integrator block: at the end of the block holding the step)."""
    v = lyap.value_of_states(S.reshape(-1, 3)).reshape(S.shape[:-1])
    if np.any(~np.isfinite(v)):
        raise RangeError("trajectory left the domain of the Lyapunov function")
    return v


def _step_margins(t: np.ndarray, v: np.ndarray, decay_rate: float) -> np.ndarray:
    """Forward-difference (Dini) slack of each step of a recorded V(t).

    `v` is (n,) or (n, m) at the n times `t`; entry j, for the step from t[j]
    to t[j+1], is nonnegative when the bound holds: with decay_rate == 0,
    (V(t+h)-V(t))/h <= tol = 1e-6*(1+V(t)); with a positive rate the
    step-wise contraction V(t+h) <= V(t)*exp(-r*h) + tol*h, the valid discrete
    consequence of the continuous bound (a raw quotient carries an O(h) bias).
    """
    h = np.diff(t).reshape((-1,) + (1,) * (v.ndim - 1))
    tol = 1e-6 * (1.0 + v[:-1])
    if decay_rate == 0.0:
        return tol - (v[1:] - v[:-1]) / h
    return v[:-1] * np.exp(-decay_rate * h) + tol * h - v[1:]


def _slowest_rate(lyap) -> float:
    """The slowest decay rate of the linearisation at the anchor: the least
    of mu and (gamma+mu)*(1-R0) at the disease-free equilibrium, and mu at
    the endemic one.  There the (S, I) pair's rates, the roots z of
    z^2 - mu*R0*z + mu*(gamma+mu)*(R0-1), have real parts above mu, since
    the endemic regime has R0 > gamma/mu + 2 > 2: the vertex mu*R0/2 lies
    above mu, and the polynomial is mu*gamma*(R0-1) > 0 at z = mu."""
    p = lyap.p
    if lyap.kind is EquilibriumKind.DISEASE_FREE:
        return min(p.mu, (p.gamma + p.mu) * (1.0 - model.r0_hat(p)))
    return p.mu


def _horizon(lyap, starts: np.ndarray, final_tol: float) -> tuple:
    """The horizon of the trajectory checks and whether its cap binds.

    It is 50 mean lifetimes 1/mu, or longer where the linearisation at the
    anchor needs it to bring the farthest of the nominal `starts`, d0 from
    the anchor in the 1-norm, within final_tol: 1.5*ln(d0/final_tol)/r at
    the slowest decay rate r (`_slowest_rate`), capped at 20*50/mu.  With no
    start farther than final_tol, 50/mu.
    """
    floor, cap = 50.0 / lyap.p.mu, 20.0 * 50.0 / lyap.p.mu
    d0 = float(np.abs(starts - lyap.equilibrium.as_array()).sum(axis=1).max(initial=0.0))
    if d0 <= final_tol:
        return floor, False
    r = _slowest_rate(lyap)
    need = 1.5 * math.log(d0 / final_tol) / r if final_tol > 0.0 and r > 0.0 else math.inf
    return min(cap, max(floor, need)), need > cap


def _trajectory_checks(lyap, starts: np.ndarray, final_tol: float,
                       signals: Sequence[ode.InputSignal], t_end: Optional[float],
                       x0: Optional[State]) -> tuple:
    """The monotonicity check of the nominal trajectories from the (n, 3)
    `starts` and one `iss_bound` check per signal, run as one
    integrate_batch: the n rows from `starts` under Constant(b_hat) first,
    then one row per signal from x0 (by default the anchor).  One
    observer reduces each block, the Dini margins on the nominal rows and the
    running maxima of V on the signal rows.  Returns the monotonicity result
    and the list of `iss_bound` results; RangeError for a signal leaving the
    admissible range, before integrating.  By default t_end is `_horizon`
    of the starts; `details` gain `horizon_capped` when its cap binds.  See
    the two public checks.
    """
    p = lyap.p
    capped = False
    if t_end is None:
        t_end, capped = _horizon(lyap, starts, final_tol)
    if x0 is None:
        x0 = lyap.equilibrium
    ext = [(max(hi - p.b_hat, 0.0), max(p.b_hat - lo, 0.0))  # exact sup u+, sup u- over [0, t_end]
           for lo, hi in (sig.value_range(t_end) for sig in signals)]
    for u_pos, u_neg in ext:
        if not lyap.admits(u_pos, u_neg):
            lo, hi = lyap.admissible_u()
            raise RangeError(f"input range [{0.0 - u_neg!r}, {u_pos!r}] outside ({lo!r}, {hi!r})")
    n = len(starts)
    X0 = np.concatenate([starts, np.tile(x0.as_array(), (len(signals), 1))])
    t_tail = 0.8 * t_end
    vmax_tail = np.zeros(len(signals))
    vmax_all = np.zeros(len(signals))
    # per block: worst margin, its step's end time, nonstrict steps, steps
    blocks = [(math.inf, 0.0, 0, 0)]

    def observer(t, X, b):
        v = _lyap_values_of_states(lyap, X)
        mono = v[:, :n]
        margin = np.where(mono[:-1] > 1e-6, _step_margins(t, mono, 0.0), np.inf)
        least = margin.min(axis=1, initial=math.inf)  # per step
        j = int(np.argmin(least))  # first step holding the minimum
        blocks.append((float(least[j]), float(t[j + 1]),
                       int(np.sum((mono[1:] >= mono[:-1]) & (mono[:-1] > 1e-9))), len(t) - 1))
        iss = v[1:, n:]  # row 0 is x0 or already seen
        np.maximum(vmax_all, iss.max(axis=0), out=vmax_all)
        tail = iss[t[1:] >= t_tail].max(axis=0, initial=0.0)  # V >= 0, as is vmax_tail
        np.maximum(vmax_tail, tail, out=vmax_tail)

    Xf = ode.integrate_batch(p, X0, [ode.Constant(p.b_hat)] * n + list(signals), t_end, DT,
                             observer=observer)
    stepped = len(blocks) > 1
    worst, worst_t, _, _ = min(blocks, key=lambda blk: blk[0])
    nonstrict = sum(blk[2] for blk in blocks)
    qpt = lyap.equilibrium.as_array()
    final_dist = float(np.abs(Xf[:n] - qpt[None, :]).sum(axis=1).max(initial=0.0))
    samples = n if stepped else 0
    ok = samples > 0 and worst >= 0.0 and final_dist <= final_tol and nonstrict == 0
    monotonicity = CheckResult(f"trajectory_monotonicity_{lyap.kind.value}", ok,
                               float(min(worst, final_tol - final_dist)), worst_t, samples,
                               {"max_final_dist": final_dist,
                                "final_tol": final_tol, "t_end": t_end,
                                "nonstrict_steps_above_1e-9": nonstrict,
                                "rk4_steps": sum(blk[3] for blk in blocks),
                                "batch_rows": len(X0),
                                **({"horizon_capped": True} if capped else {})})
    iss_bounds = []
    for sig, (u_pos, u_neg), v_tail, v_all in zip(signals, ext, vmax_tail.tolist(),
                                                  vmax_all.tolist()):
        thr = float(lyap.chi_signed(u_pos, u_neg))
        margin = max(thr * (1.0 + 1e-3), 1e-6) - v_tail
        ok = stepped and margin >= 0.0
        details = {"limsup_v": v_tail, "threshold": thr, "u_pos": u_pos, "u_neg": u_neg}
        if lyap.invariance_level is not None:
            details["max_v_full_horizon"] = v_all
            details["forward_invariant"] = v_all <= lyap.invariance_level * (1.0 + 1e-9)
            ok = ok and details["forward_invariant"]
        details["signal"] = ode.signal_to_dict(sig)
        iss_bounds.append(CheckResult("iss_bound", ok, margin, None, 1 if stepped else 0, details))
    return monotonicity, iss_bounds


def check_trajectory_monotonicity(lyap, n_starts: int = N_STARTS, t_end: Optional[float] = None,
                                  seed: int = DEFAULT_SEED, final_tol: float = 1e-3) -> CheckResult:
    """Dini check over a batch of nominal-input trajectories, one reduction per block.

    Asserts V decreases (difference quotient below 1e-6*(1+V)) while
    V > 1e-6, and the final state lands within final_tol of the anchor
    in the 1-norm by t_end (default `_horizon` of the starts).  A run of no step
    (t_end = 0) evaluates nothing: it fails with `samples` 0.  `details`
    count the RK4 steps and the rows of the batch they stepped.
    """
    return _trajectory_checks(lyap, lyap.start_states(n_starts, seed), final_tol, [], t_end,
                              None)[0]


def check_iss_bound(lyap, signals: Sequence[ode.InputSignal], t_end: Optional[float] = None,
                    x0: Optional[State] = None) -> list:
    """limsup of V over the final 20% of the horizon stays below the gain
    threshold (with relative headroom 1e-3), one `iss_bound` result per
    signal, its `details` naming the signal.

    The signals run as one batch, one row each, every row from x0 (by
    default the anchor); ValueError for no signals and RangeError for a
    signal leaving the admissible range, both before integrating.  The
    threshold is chi(sup|u|) = sup|u|/(delta*(mu-mu0)) for the disease-free
    function and the eta-derived level for the endemic one, capped at l_bar
    (`lyap.invariance_level`), below which V must stay over the whole horizon.
    A run of no step (t_end = 0) evaluates nothing: each result fails with
    `samples` 0.
    """
    if len(signals) == 0:
        raise ValueError("check_iss_bound needs at least one input signal")
    return _trajectory_checks(lyap, np.empty((0, 3)), 0.0, signals, t_end, x0)[1]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _formula_steady_state(p: ModelParams, c: float) -> np.ndarray:
    pc = ModelParams(p.beta, p.gamma, p.mu, c)
    if model.r0_hat(pc) <= 1.0:
        return model.disease_free_eq(pc).as_array()
    return model.endemic_eq(pc).as_array()


def check_bifurcation_continuity(p: ModelParams,
                                 c_values: Optional[np.ndarray] = None) -> CheckResult:
    """Simulated steady states track the closed-form branches across R0 = 1,
    within 5e-2 in the 1-norm; ValueError for fewer than two c_values.

    Every row steps under its Constant(c), 50 time units of integrate_batch
    at dt 0.25 at a time, until each row's ||rhs||_1 is below
    1e-8*(1 + ||x||_1); NoConvergence once t reaches 4e4 first."""
    c_star = p.mu * (p.gamma + p.mu) / p.beta
    if c_values is None:
        c_values = np.linspace(0.71 * c_star, 1.30 * c_star, 21)
    c_values = np.asarray(c_values, dtype=float)
    if c_values.size < 2:
        raise ValueError("check_bifurcation_continuity needs at least two c_values")
    X0 = np.column_stack([0.8 * c_values / p.mu,
                          np.full(len(c_values), 10.0),
                          np.full(len(c_values), 5.0)])
    signals = [ode.Constant(c) for c in c_values.tolist()]  # Python floats step fastest
    X = X0
    for _ in range(800):  # 800 spans of 50 reach t = 4e4
        X = ode.integrate_batch(p, X, signals, 50.0, 0.25)
        ds, di, dr = model.rhs_arrays(p, X[:, 0], X[:, 1], X[:, 2], c_values)
        if np.all(np.abs(ds) + np.abs(di) + np.abs(dr) < 1e-8 * (1.0 + np.abs(X).sum(axis=1))):
            break
    else:
        raise NoConvergence(f"no steady state within t=4e4 (c={c_values.tolist()})")
    F = np.stack([_formula_steady_state(p, c) for c in c_values])
    err = np.abs(X - F).sum(axis=1)
    dx = np.abs(np.diff(X, axis=0)).sum(axis=1)
    dc = np.diff(c_values)
    K = float((dx / dc).max())
    f_left = model.disease_free_eq(ModelParams(p.beta, p.gamma, p.mu, c_star)).as_array()
    pe = ModelParams(p.beta, p.gamma, p.mu, c_star * (1.0 + 1e-13))
    f_right = model.endemic_eq(pe).as_array()
    lim_gap = float(np.abs(f_left - f_right).sum() / (1.0 + np.abs(f_left).sum()))
    j = int(np.argmax(err))
    match_tol = 5e-2
    ok = bool(np.all(err <= match_tol)) and lim_gap <= 1e-3
    return CheckResult("bifurcation_continuity", ok, float(match_tol - err[j]),
                       float(c_values[j]), len(c_values),
                       {"lipschitz_estimate": K, "limit_gap_at_threshold": lim_gap,
                        "max_formula_error": float(err.max()), "match_tol": match_tol})


def check_sublevel_nesting(lyap, lam_hat2_pairs=None, k_pairs=None,
                           n: int = 10_000, seed: int = DEFAULT_SEED) -> CheckResult:
    """Monotonicity of the sublevel sets of levels l_bar and l_bar/2 in
    lambda_hat2 and (restricted) in k, over pairs (a, b), a < b, by default
    (lambda_hat2/2, lambda_hat2) and (k/2, k) from the function's constants.

    The lambda_hat2 ordering holds pointwise for the full function, so it is
    sampled in all three coordinates.  The k ordering is a property of the
    planar part (its budget argument in the flat region is consumed by any
    positive x3 contribution, for which counterexamples exist), so it is
    sampled on the x3t = 0 slice, restricted to x2t <= L.  A pair
    failing condition (50) is listed in details' `skipped_pairs`, not tested.
    """
    p, lp = lyap.p, lyap.lp
    if lam_hat2_pairs is None:
        lam_hat2_pairs = ((0.5 * lp.lambda_hat2, lp.lambda_hat2),)
    if k_pairs is None:
        k_pairs = ((0.5 * lp.k, lp.k),)
    L_values = [lp.l_bar, 0.5 * lp.l_bar]
    rng = np.random.default_rng(seed)
    q = lyap.equilibrium
    X = np.empty((n, 3))
    X[:, 0] = rng.uniform(-0.99 * (1.0 - lp.k) * q.i, lp.l_bar, n)
    X[:, 1] = rng.uniform(-0.98 * q.i, lp.l_bar / lp.lam0, n)
    X[:, 2] = rng.uniform(-0.9 * q.r, lp.l_bar / lp.lambda3, n)
    Xp = X.copy()
    Xp[:, 2] = 0.0
    violations, tested, skipped = 0, 0, {}
    for name, pairs, Y, capped in (("lambda_hat2", lam_hat2_pairs, X, False),
                                   ("k", k_pairs, Xp, True)):
        for a, b in pairs:
            lpa, lpb = lp.replace(**{name: a}), lp.replace(**{name: b})
            if not all(lyap_en.check_condition_50(p, lq).passed for lq in (lpa, lpb)):
                skipped.setdefault(name, []).append([a, b])
                continue
            for L in L_values:
                cap = Y[:, 1] <= L if capped else True
                inb = lyap_en.in_sublevel_many(p, lpb, Y, L) & cap
                ina = lyap_en.in_sublevel_many(p, lpa, Y, L) & cap
                violations += int(np.sum(inb & ~ina))
                tested += int(inb.sum())
    details = {"lam_hat2_pairs": list(map(list, lam_hat2_pairs)),
               "k_pairs": list(map(list, k_pairs)), "L_values": L_values,
               **({"skipped_pairs": skipped} if skipped else {})}
    return CheckResult("sublevel_nesting", tested > 0 and violations == 0, -float(violations),
                       None, tested, details)


def check_w_region(lyap, n_starts: int = 20, t_end: Optional[float] = None,
                   seed: int = DEFAULT_SEED) -> CheckResult:
    """Exponential decay of W = -x1t - x2t + |x3t| inside the entry wedge,
    and finite entry time into the sublevel set.  A run of no start or no
    step evaluates nothing: it fails with `samples` 0."""
    p, lp = lyap.p, lyap.lp
    rng = np.random.default_rng(seed)
    q = lyap.equilibrium
    qpt = q.as_array()
    if t_end is None:
        t_end = _horizon(lyap, np.empty((0, 3)), 0.0)[0]
    x2t0 = rng.uniform(-0.9 * q.i, -0.05 * q.i, n_starts)
    x1t0 = rng.uniform(-0.9 * q.s, -lp.k * x2t0)
    x3t0 = rng.uniform(-0.9 * q.r, 1.5 * q.r, n_starts)
    D0 = np.column_stack([x1t0, x2t0, x3t0])
    D0[:1] = 0.0  # include the equilibrium itself: W stays at zero
    X0 = D0 + qpt[None, :]

    entry = np.full(n_starts, np.nan)
    entry[lyap_en.in_sublevel_many(p, lp, D0, lp.l_bar)] = 0.0
    block_worst = [math.inf]  # per block: the worst contraction slack inside the wedge

    def observer(t, X, b):
        D = X - qpt
        w = -D[..., 0] - D[..., 1] + np.abs(D[..., 2])
        wedge = (D[..., 0] <= -lp.k * D[..., 1]) & (D[..., 1] <= 0.0)
        both = wedge[:-1] & wedge[1:]
        block_worst.append(float(_step_margins(t, w, p.mu)[both].min(initial=math.inf)))
        pending = np.flatnonzero(np.isnan(entry))
        if len(pending):  # sublevel-set entry, tested at every step
            inside = lyap_en.in_sublevel_many(p, lp, D[1:, pending].reshape(-1, 3), lp.l_bar)
            inside = inside.reshape(-1, len(pending))
            hit = inside.any(axis=0)
            entry[pending[hit]] = t[1:][inside.argmax(axis=0)[hit]]

    ode.integrate_batch(p, X0, [ode.Constant(p.b_hat)] * n_starts, t_end, DT, observer=observer)
    entered = ~np.isnan(entry)
    worst = min(block_worst)
    samples = n_starts if len(block_worst) > 1 else 0
    ok = samples > 0 and worst >= 0.0 and bool(entered.all())
    return CheckResult("w_region", ok, worst, None, samples,
                       {"max_entry_time": float(np.nanmax(entry, initial=-math.inf)),
                        "all_entered": bool(entered.all())})


def separability_obstruction_demo(p: ModelParams) -> CheckResult:
    """Contradictory sign requirements on dV/dx1t at x1t = 0 for any
    separable candidate whose x3-part increases away from the anchor."""
    q = model.endemic_eq(p)
    ratio = p.gamma / p.mu
    off = min(60.0, q.i / 2)  # keeps the lower point inside the orthant
    # class (a): x2 above equilibrium, x3 in (x3h, ratio*x2]
    x2_up = q.i + off
    x3_up = min(q.r + off, ratio * x2_up)
    f_up = model.rhs_arrays(p, q.s, x2_up, x3_up, p.b_hat)
    # class (b): x2 below equilibrium, x3 in [ratio*x2, x3h)
    x2_dn = q.i - off
    x3_dn = 0.5 * (ratio * x2_dn + q.r)
    f_dn = model.rhs_arrays(p, q.s, x2_dn, x3_dn, p.b_hat)
    # decrease with dI/dt = 0 and the x3 term nonnegative forces these signs
    sign_up = 1 if f_up[0] < 0.0 and f_up[2] >= 0.0 else 0
    sign_dn = -1 if f_dn[0] > 0.0 and f_dn[2] <= 0.0 else 0
    f_eq = model.rhs_arrays(p, q.s, q.i, 1234.0, p.b_hat)
    flow_vanishes = abs(f_eq[0]) <= 1e-9 * max(1.0, p.b_hat)
    ok = sign_up == 1 and sign_dn == -1 and flow_vanishes
    margin = min(-f_up[0], f_dn[0])
    return CheckResult("separability_obstruction", ok, float(margin),
                       [q.s, x2_up, x3_up], 2,
                       {"required_sign_upper": sign_up, "required_sign_lower": sign_dn,
                        "dx2dt_on_plane": float(f_up[1]),
                        "anti_parallel_vanishes_at_x2hat": flow_vanishes})


def prohibited_region_demo(p: ModelParams, l_bars=(340.0, 1e3, 3e3, 1e4),
                           t_end: float = 3000.0) -> CheckResult:
    """The corner wedge along the S-axis, here the state (100, 0.01, 0), stays
    outside every sublevel set, and the infected count keeps falling while
    x1 < x1h."""
    q = model.endemic_eq(p)
    xf = model.disease_free_eq(p).as_array()
    start = State(100.0, 0.01, 0.0)
    f0 = model.rhs_arrays(p, start.s, start.i, start.r, p.b_hat)
    di_negative = f0[1] < 0.0
    # on the axis itself the I-equation is at rest and S grows
    f_axis = model.rhs_arrays(p, start.s, 0.0, 0.0, p.b_hat)
    axis_ok = f_axis[1] == 0.0 and f_axis[0] > 0.0
    traj = ode.integrate(p, start, ode.Constant(p.b_hat), t_end, DT)
    S, I = traj.states[:, 0], traj.states[:, 1]
    # the derivative sign is exact; the recorded decrease needs a small buffer
    # away from the threshold, where the decrement falls below roundoff
    di = p.beta * I * (S - q.s)
    sign_ok = bool(np.all(di[(S < q.s) & (I > 0.0)] < 0.0))
    below = (S[:-1] < q.s - 0.01) & (S[1:] < q.s - 0.01)
    i_monotone = sign_ok and bool(np.all(I[1:][below] < I[:-1][below]))
    dist_f = np.abs(traj.states - xf[None, :]).sum(axis=1)
    final_dist_e = float(np.abs(traj.states[-1] - q.as_array()).sum())
    dev0 = (start.as_array() - q.as_array())[None, :]
    excluded = []
    for lb in l_bars:
        lp = lyap_en.select_en_params(p, l_bar=lb)
        excluded.append(not lyap_en.in_sublevel_many(p, lp, dev0, lb)[0])
    ok = di_negative and axis_ok and i_monotone and all(excluded) and final_dist_e < 1.0
    return CheckResult("prohibited_region", ok,
                       float(min(-f0[1], 1.0 - final_dist_e)),
                       [start.s, start.i, start.r], len(l_bars),
                       {"min_distance_to_disease_free": float(dist_f.min()),
                        "final_distance_to_endemic": final_dist_e,
                        "excluded_for_all_l_bars": all(excluded),
                        "l_bars": list(map(float, l_bars))})


# ---------------------------------------------------------------------------
# composed suites
# ---------------------------------------------------------------------------

def builtin_signal_suite(p: ModelParams, u_mag: float, t_end: float) -> list:
    """Constant, step and clipped-sinusoid perturbations of magnitude u_mag."""
    return [
        ode.Constant(p.b_hat + u_mag),
        ode.Step(0.2 * t_end, p.b_hat, p.b_hat + u_mag),
        ode.Sinusoid(p.b_hat, u_mag, 2.0 * math.pi / (t_end / 8.0)),
    ]


def _df_suite(lyap, seed: int, grid_n: int, n_samples: int) -> list:
    """The disease-free checks in report order; ISS signals of size b_hat/10."""
    starts = lyap.start_states(N_STARTS, seed)
    signals = builtin_signal_suite(lyap.p, lyap.p.b_hat / 10.0, _horizon(lyap, starts, 1e-3)[0])
    checks = [check_df_continuity(lyap, seed=seed),
              check_df_positive_definite(lyap, seed=seed),
              check_df_grid_iss(lyap, n=grid_n)]
    monotonicity, iss_bounds = _trajectory_checks(lyap, starts, 1e-3, signals, None, None)
    return checks + [monotonicity] + iss_bounds


def _en_suite(lyap, seed: int, grid_n: int, n_samples: int) -> list:
    """The endemic checks in report order; ISS signals of 45% of admissible_u()'s nearer end."""
    lo, hi = lyap.admissible_u()
    starts = lyap.start_states(N_STARTS, seed)
    signals = builtin_signal_suite(lyap.p, 0.45 * min(-lo, hi), _horizon(lyap, starts, 1e-2)[0])
    checks = [CheckResult("condition_50", *lyap_en.check_condition_50(lyap.p, lyap.lp)),
              check_en_continuity(lyap, seed=seed),
              check_en_sample_decrease(lyap, n=n_samples, seed=seed),
              check_en_iss_pointwise(lyap, n=min(n_samples, N_POINTWISE), seed=seed)]
    monotonicity, iss_bounds = _trajectory_checks(lyap, starts, 1e-2, signals, None, None)
    return checks + [monotonicity, check_sublevel_nesting(lyap, seed=seed)] + iss_bounds


def run_certification(lyap, seed: int = DEFAULT_SEED, grid_n: int = GRID_N,
                      n_samples: int = N_SAMPLES) -> VerificationReport:
    """The certify suite of `lyap.kind`, its `iss_bound` results last; its
    monotonicity starts and ISS signals step as one integrate_batch."""
    suite = _df_suite if lyap.kind is EquilibriumKind.DISEASE_FREE else _en_suite
    return VerificationReport(suite(lyap, seed, grid_n, n_samples))

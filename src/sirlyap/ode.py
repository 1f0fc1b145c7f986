"""Fixed-step RK4 integration of the SIR system under time-varying inputs.

`integrate_batch` is the one integrator, for a batch of states under one
shared input or one input per row; `integrate` and `steady_state` run
through it.  Its observer sees blocks of steps, each a short recorded
trajectory, so a check along trajectories is one array reduction per block.
Discontinuous (step/piecewise-constant) inputs are handled by aligning the
integration grid with the switch times of every row's input, which
preserves the classical order of the method across each segment.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NonFiniteState, NotConverged
from .model import EquilibriumKind, ModelParams, State, rhs_arrays

DEFAULT_DT = 0.01
_BLOCK_STEPS = 512  # steps per observer call: a 50-row block stays under 1 MB


# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------

class InputSignal:
    """Newborn/immigration rate B(t) >= 0 defined for t >= 0."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def breakpoints(self, t_end: float) -> list:
        """Interior discontinuity times in (0, t_end)."""
        return []

    def value_range(self, t_end: float) -> tuple:
        """Exact (min, max) of B over [0, t_end]: the levels active in range."""
        if not self.piecewise_constant:
            raise NotImplementedError
        vals = [self.value(t) for t in [0.0, *self.breakpoints(t_end), t_end]]
        return min(vals), max(vals)

    #: True when the signal is constant between consecutive breakpoints
    piecewise_constant = False


@dataclass(frozen=True)
class Constant(InputSignal):
    c: float

    piecewise_constant = True

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError("constant input must be nonnegative")

    def value(self, t: float) -> float:
        return self.c


@dataclass(frozen=True)
class Step(InputSignal):
    t_switch: float
    c_before: float
    c_after: float

    piecewise_constant = True

    def __post_init__(self):
        if min(self.c_before, self.c_after) < 0.0:
            raise ValueError("step levels must be nonnegative")

    def value(self, t: float) -> float:
        return self.c_after if t >= self.t_switch else self.c_before

    def breakpoints(self, t_end: float) -> list:
        return [self.t_switch] if 0.0 < self.t_switch < t_end else []


@dataclass(frozen=True)
class Piecewise(InputSignal):
    """Left-closed segments: level c_i applies on [t_i, t_{i+1})."""

    points: tuple  # ((t_0, c_0), (t_1, c_1), ...) with t_0 <= 0 recommended

    piecewise_constant = True

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if list(ts) != sorted(ts):
            raise ValueError("piecewise breakpoints must be increasing")
        if any(c < 0.0 for _, c in self.points):
            raise ValueError("piecewise levels must be nonnegative")
        if not self.points:
            raise ValueError("piecewise signal needs at least one segment")

    def value(self, t: float) -> float:
        out = self.points[0][1]
        for ti, ci in self.points:
            if t >= ti:
                out = ci
            else:
                break
        return out

    def breakpoints(self, t_end: float) -> list:
        return [t for t, _ in self.points if 0.0 < t < t_end]


@dataclass(frozen=True)
class Sinusoid(InputSignal):
    """max(0, mean + amplitude*sin(omega*t)); the clip keeps B nonnegative."""

    mean: float
    amplitude: float
    angular_frequency: float

    def value(self, t: float) -> float:
        return max(0.0, self.mean + self.amplitude * math.sin(self.angular_frequency * t))

    def value_range(self, t_end: float) -> tuple:
        """Exact (min, max) over [0, t_end]: the endpoints plus every crest
        and trough of the sine in range, clipped at 0."""
        vals = [self.value(0.0), self.value(t_end)]
        lo, hi = sorted((0.0, self.angular_frequency * t_end))
        for phase, sin in ((0.5 * math.pi, 1.0), (1.5 * math.pi, -1.0)):
            if phase + 2.0 * math.pi * math.ceil((lo - phase) / (2.0 * math.pi)) <= hi:
                vals.append(max(0.0, self.mean + self.amplitude * sin))
        return min(vals), max(vals)


def sample_input(sig: InputSignal, t: float) -> float:
    """Evaluate B(t); t must be nonnegative."""
    if t < 0.0:
        raise DomainError("signals are defined for t >= 0")
    return sig.value(t)


def signal_from_dict(d: dict) -> InputSignal:
    def num(v) -> float:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"signal values must be finite, got {v!r}")
        return x

    kinds = {
        "constant": lambda d: Constant(num(d["value"])),
        "step": lambda d: Step(num(d["t_switch"]), num(d["before"]), num(d["after"])),
        "piecewise": lambda d: Piecewise(tuple((num(t), num(c)) for t, c in d["points"])),
        "sinusoid": lambda d: Sinusoid(
            num(d["mean"]), num(d["amplitude"]), num(d["angular_frequency"])
        ),
    }
    kind = d.get("kind")
    if kind not in kinds:
        raise ValueError(f"unknown signal kind {kind!r}")
    return kinds[kind](d)


def signal_to_dict(sig: InputSignal) -> dict:
    if isinstance(sig, Constant):
        return {"kind": "constant", "value": sig.c}
    if isinstance(sig, Step):
        return {"kind": "step", "t_switch": sig.t_switch, "before": sig.c_before, "after": sig.c_after}
    if isinstance(sig, Piecewise):
        return {"kind": "piecewise", "points": [list(pt) for pt in sig.points]}
    if isinstance(sig, Sinusoid):
        return {
            "kind": "sinusoid",
            "mean": sig.mean,
            "amplitude": sig.amplitude,
            "angular_frequency": sig.angular_frequency,
        }
    raise ValueError(f"unsupported signal type {type(sig)!r}")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Recorded solution: times (n,), states (n, 3), inputs (n,)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    anchor: Optional[EquilibriumKind] = None

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.inputs)):
            raise ValueError("times, states and inputs must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> State:
        s, i, r = self.states[-1]
        return State(float(s), float(i), float(r))

    def to_csv(self, path, thin: int = 1) -> None:
        """Write `t,S,I,R,B` rows, keeping every `thin`-th record plus the last."""
        if thin < 1:
            raise ValueError("thin must be >= 1")
        idx = list(range(0, len(self.times), thin))
        if idx[-1] != len(self.times) - 1:
            idx.append(len(self.times) - 1)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "S", "I", "R", "B"])
            for j in idx:
                s, i, r = self.states[j]
                w.writerow([repr(float(self.times[j])), repr(float(s)), repr(float(i)),
                            repr(float(r)), repr(float(self.inputs[j]))])


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _segments(signals: list, t_end: float) -> list:
    cuts = sorted(set().union(*(sig.breakpoints(t_end) for sig in signals)))
    edges = [0.0] + cuts + [t_end]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def _input_on_segment(signals: list, a: float):
    """B(t) on the segment starting at a: a scalar for one shared signal, one
    value per row otherwise.  Piecewise-constant signals hold the level at
    the segment start (segments are left-closed)."""
    if all(sig.piecewise_constant for sig in signals):
        levels = [sig.value(a) for sig in signals]
        c = levels[0] if len(signals) == 1 else np.array(levels)
        return lambda t: c
    if len(signals) == 1:
        return signals[0].value
    return lambda t: np.array([sig.value(a if sig.piecewise_constant else t)
                               for sig in signals])


def _check_state(X: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(X)):
        raise NonFiniteState(f"non-finite state at t={t:.6g}; reduce dt")
    n_tot = np.maximum(1.0, X.sum(axis=-1))
    floor = -1e-12 * n_tot
    bad = X < floor[..., None]
    if np.any(bad):
        raise NonFiniteState(f"state component below -1e-12*N at t={t:.6g}; reduce dt")
    np.clip(X, 0.0, None, out=X)


def _rk4_steps(p: ModelParams, X: np.ndarray, signals: list, t_end: float, dt: float):
    """Yield (t, X, b) after each RK4 step of the batch X (m, 3) from 0 to
    t_end, every segment between switch times cut into equal steps <= dt."""
    for t0, t1 in _segments(signals, t_end):
        b_of_t = _input_on_segment(signals, t0)
        n = max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * h
            t_next = t1 if j == n - 1 else t0 + (j + 1) * h  # land exactly on t1
            b0 = b_of_t(t)
            bm = b_of_t(t + 0.5 * h)
            b1 = b_of_t(t_next)
            s, i, r = X[:, 0], X[:, 1], X[:, 2]
            k1 = np.stack(rhs_arrays(p, s, i, r, b0), axis=1)
            Y = X + 0.5 * h * k1
            k2 = np.stack(rhs_arrays(p, Y[:, 0], Y[:, 1], Y[:, 2], bm), axis=1)
            Y = X + 0.5 * h * k2
            k3 = np.stack(rhs_arrays(p, Y[:, 0], Y[:, 1], Y[:, 2], bm), axis=1)
            Y = X + h * k3
            k4 = np.stack(rhs_arrays(p, Y[:, 0], Y[:, 1], Y[:, 2], b1), axis=1)
            X = X + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            _check_state(X, t_next)
            yield t_next, X, b1


def integrate_batch(p: ModelParams, X0: np.ndarray, sig: InputSignal | Sequence[InputSignal],
                    t_end: float, dt: float = DEFAULT_DT, observer=None) -> np.ndarray:
    """RK4 for a batch of initial states; returns the final batch.

    `sig` is one InputSignal for every row or a sequence with one per row,
    whose breakpoints are merged.  `observer(t, X, b)` is invoked once per
    block of up to `_BLOCK_STEPS` accepted steps, with new arrays t (k+1,),
    X (k+1, m, 3) and b (k+1,), or (k+1, m) for a sequence.  Row 0 is the
    row the block starts from: (0, X0), then the previous block's last row.
    Pure apart from the observer callback; safe to run concurrently on
    separate data.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    X = np.array(X0, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("X0 must have shape (m, 3)")
    signals = [sig] if isinstance(sig, InputSignal) else list(sig)
    if len(signals) != 1 and len(signals) != len(X):
        raise ValueError("need one signal, or one signal per row of X0")
    rows = _rk4_steps(p, X, signals, t_end, dt)
    last = (0.0, X, _input_on_segment(signals, 0.0)(0.0))
    while block := list(itertools.islice(rows, _BLOCK_STEPS)):
        block.insert(0, last)
        if observer is not None:
            observer(*(np.array(column) for column in zip(*block)))
        last = block[-1]
    return last[1]


def integrate(p: ModelParams, x0: State, sig: InputSignal, t_end: float,
              dt: float = DEFAULT_DT, record_every: int = 1) -> Trajectory:
    """Integrate from x0 and record every `record_every`-th step plus the last."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    blocks = [([0.0], x0.as_array()[None, :], [sample_input(sig, 0.0)])]
    integrate_batch(p, x0.as_array()[None, :], sig, t_end, dt,
                    observer=lambda t, X, b: blocks.append((t[1:], X[1:, 0], b[1:])))
    t, X, b = (np.concatenate(column) for column in zip(*blocks))
    keep = np.arange(len(t)) % record_every == 0  # row j is the state after step j
    if not keep[-1]:
        keep[-1] = True
        b[-1] = sig.value(t_end)
    return Trajectory(t[keep], X[keep], b[keep])


def steady_state_batch(p: ModelParams, cs: Sequence[float], x0s: np.ndarray,
                       tol: float = 1e-8, t_max: float = 4e4, dt: float = 0.25) -> np.ndarray:
    """Steady states for several constant inputs advanced in lockstep: every
    row integrates under its Constant(c) until ||rhs||_1 < tol*(1 + ||x||_1).

    Raises NotConverged when t_max is reached first.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    cs = np.asarray(cs, dtype=float)
    signals = [Constant(c) for c in cs]
    X = np.array(x0s, dtype=float, copy=True)
    t = 0.0
    chunk = 200.0 * dt
    while t < t_max:
        step = min(chunk, t_max - t)
        X = integrate_batch(p, X, signals, step, dt)
        t += step
        ds, di, dr = rhs_arrays(p, X[:, 0], X[:, 1], X[:, 2], cs)
        resid = np.abs(ds) + np.abs(di) + np.abs(dr)
        if np.all(resid < tol * (1.0 + np.abs(X).sum(axis=1))):
            return X
    raise NotConverged(f"no steady state within t_max={t_max:.6g} (c={cs.tolist()})")


def steady_state(p: ModelParams, c: float, x0: State, tol: float = 1e-9,
                 t_max: float = 1e5, dt: float = 0.1) -> State:
    """Single-input form of `steady_state_batch`; raises NotConverged."""
    s, i, r = steady_state_batch(p, [c], x0.as_array()[None, :], tol, t_max, dt)[0]
    return State(float(s), float(i), float(r))

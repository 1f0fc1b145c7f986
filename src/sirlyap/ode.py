"""Fixed-step RK4 integration of the SIR system under time-varying inputs.

`integrate_batch` is the one integrator, for a batch of states under one
shared input or one input per row; `integrate` and `steady_state` run
through it.  Its observer sees blocks of steps, each a short recorded
trajectory, so a check along trajectories is one array reduction per block.
Discontinuous (step/piecewise-constant) inputs are handled by aligning the
integration grid with the switch times of every row's input, which
preserves the classical order of the method across each segment.

The RK4 step calls the model's `rhs_arrays` at every stage and is fed two
ways by batch width.  A narrow batch steps every row in lockstep on Python
floats under its own scalar B(t), which avoids the per-step numpy overhead
that dominates small arrays.  A wide one steps one stacked (3, m) array,
whose rows are S, I and R, so each stage argument and the final combination
is one array operation; its steps are written in place into a block buffer
that is reused from block to block.  Either way the observer receives a
fresh (k+1, m, 3) array per block, which it owns.

The state check runs once per block: a block is stepped without it and its
new values are tested together.  Values that are all finite and +0.0 or
positive are exactly those no step's check would reject or clip; any other
block is replayed from its first row with the check after every step.
Input levels are read once per segment between switch times: the level of
a piecewise-constant signal at the segment start, while a continuous one is
evaluated at each step's midpoint and end, and its value at the step's start
is the previous step's end.  Both ways share the step grid, the observer
blocks, the state check and the input levels, and evaluate the same
floating-point operations in the same order, so their results are
bit-identical.
"""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NonFiniteState, NotConverged
from .model import EquilibriumKind, ModelParams, State, rhs_arrays

DEFAULT_DT = 0.01
_BLOCK_STEPS = 512  # steps per observer call: a 50-row block stays under 1 MB
# Batches narrower than this step row by row on Python floats, wider ones on
# one stacked array.  A float step costs about 2.1 us a row under one shared
# Constant and 2.2 us with one Constant per row, a stacked step 41-46 us
# whatever the width, so the two cross at 21-22 rows for a shared input and
# 20-21 rows for per-row ones (measured on a 2-vCPU Xeon VM).
_FLOAT_ROWS = 21
_CSV_BLOCK = 4096  # rows per block of CSV text


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
        n = len(self.times)
        rows = slice(0, n, thin) if (n - 1) % thin == 0 else np.r_[0:n:thin, n - 1]
        with csv_file(path, "t,S,I,R,B") as fh:
            write_rows(fh, [self.times[rows], self.states[rows], self.inputs[rows]],
                       "{!r},{!r},{!r},{!r},{!r}\r\n".format)


@contextmanager
def csv_file(path, header: str):
    """`path` open for CSV text with its `header` line written; rows go in
    by `write_rows`.  Lines end in "\r\n", as the csv module's."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        yield fh


def write_rows(fh, columns: Sequence[np.ndarray], line) -> None:
    """Write `line(*row)` for every row of the stacked `columns` (arrays of
    equal length), _CSV_BLOCK rows at a time, so the text held in memory
    stays bounded."""
    for a in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[a:a + _CSV_BLOCK] for c in columns]).tolist()
        fh.write("".join(line(*row) for row in block))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _segments(signals: list, t_end: float) -> list:
    cuts = sorted(set().union(*(sig.breakpoints(t_end) for sig in signals)))
    edges = [0.0] + cuts + [t_end]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def _start_levels(signals: list, pack):
    """B at t = 0: a scalar for one shared signal, else `pack`ed, one level per row."""
    b = [sig.value(0.0) for sig in signals]
    return b[0] if len(b) == 1 else pack(b)


def _rates(signals: list, a: float, pack):
    """The input levels of the segment starting at a, as a function
    rate(b, t, h, t_next) -> (b0, bm, b1): B at the start, midpoint and end
    of a step, given b, the levels the step before ended on.  Each is a
    scalar for one shared signal, else `pack`ed with one level per row.

    A piecewise-constant signal holds its level at a (segments are
    left-closed), read here once.  A continuous one is evaluated at t + h/2
    and t_next only: its B(t) is the step before's B(t_next), which it took
    at the same float t."""
    held = [sig.value(a) if sig.piecewise_constant else None for sig in signals]
    if len(signals) == 1:
        c, f = held[0], signals[0].value
        if c is not None:
            return lambda b, t, h, t_next, bc=(c, c, c): bc
        return lambda b, t, h, t_next: (b, f(t + 0.5 * h), f(t_next))
    moving = [(j, sig.value) for j, sig in enumerate(signals) if held[j] is None]
    held = pack([0.0 if c is None else c for c in held])
    if not moving:
        return lambda b, t, h, t_next, bc=(held, held, held): bc

    def rate(b, t, h, t_next):
        b0, bm, b1 = held.copy(), held.copy(), held.copy()
        for j, f in moving:
            b0[j], bm[j], b1[j] = b[j], f(t + 0.5 * h), f(t_next)
        return b0, bm, b1

    return rate


def _grid(signals: list, t_end: float, dt: float, pack):
    """Yield (t, h, t_next, rate) for each RK4 step from 0 to t_end, every
    segment between switch times cut into equal steps <= dt; `rate` is the
    segment's `_rates`."""
    for t0, t1 in _segments(signals, t_end):
        rate = _rates(signals, t0, pack)
        n = max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))
        h = (t1 - t0) / n
        for j in range(n):
            yield t0 + j * h, h, t1 if j == n - 1 else t0 + (j + 1) * h, rate  # land on t1


def _rk4(p: ModelParams, s, i, r, h: float, b0, bm, b1) -> tuple:
    """One classical RK4 step on the components (S, I, R) of one row, as
    Python floats."""
    k1s, k1i, k1r = rhs_arrays(p, s, i, r, b0)
    k2s, k2i, k2r = rhs_arrays(p, s + 0.5 * h * k1s, i + 0.5 * h * k1i, r + 0.5 * h * k1r, bm)
    k3s, k3i, k3r = rhs_arrays(p, s + 0.5 * h * k2s, i + 0.5 * h * k2i, r + 0.5 * h * k2r, bm)
    k4s, k4i, k4r = rhs_arrays(p, s + h * k3s, i + h * k3i, r + h * k3r, b1)
    return (s + (h / 6.0) * (k1s + 2.0 * (k2s + k3s) + k4s),
            i + (h / 6.0) * (k1i + 2.0 * (k2i + k3i) + k4i),
            r + (h / 6.0) * (k1r + 2.0 * (k2r + k3r) + k4r))


def _nonfinite(t: float) -> NonFiniteState:
    return NonFiniteState(f"non-finite state at t={t:.6g}; reduce dt")


def _below_floor(t: float) -> NonFiniteState:
    return NonFiniteState(f"state component below -1e-12*N at t={t:.6g}; reduce dt")


def _check_rows(rows: list, t: float) -> list:
    """The state check after a step, on rows of Python floats: NonFiniteState
    for a non-finite component in any row, else for a component below
    -1e-12*max(1, S+I+R) of its row; otherwise every component clipped at 0."""
    out, below = [], False
    for s, i, r in rows:
        if not (math.isfinite(s) and math.isfinite(i) and math.isfinite(r)):
            raise _nonfinite(t)
        below = below or min(s, i, r) < -1e-12 * max(1.0, s + i + r)
        out.append((s if s > 0.0 else 0.0, i if i > 0.0 else 0.0, r if r > 0.0 else 0.0))
    if below:
        raise _below_floor(t)
    return out


def _stacked_rk4(p: ModelParams, m: int):
    """`_rk4` on stacked (3, m) states: a function step(Y, out, h, b0, bm,
    b1) that writes the step from Y into `out`, each b a scalar or one value
    per row.  It runs the same operations in the same order, each one array
    operation over the rows S, I, R, with the stage derivatives and
    arguments held in a workspace that every step reuses."""
    K, Z = np.empty((4, 3, m)), np.empty((3, m))
    k1, k2, k3, k4 = K
    z = tuple(Z)

    def step(Y: np.ndarray, out: np.ndarray, h: float, b0, bm, b1) -> None:
        k1[0], k1[1], k1[2] = rhs_arrays(p, *Y, b0)
        for k, c, kn, b in ((k1, 0.5 * h, k2, bm), (k2, 0.5 * h, k3, bm), (k3, h, k4, b1)):
            np.multiply(k, c, out=Z)
            np.add(Y, Z, out=Z)
            kn[0], kn[1], kn[2] = rhs_arrays(p, *z, b)
        np.add(k2, k3, out=Z)
        np.multiply(Z, 2.0, out=Z)
        np.add(k1, Z, out=Z)
        np.add(Z, k4, out=Z)
        np.multiply(Z, h / 6.0, out=Z)
        np.add(Y, Z, out=out)

    return step


def _check_stacked(Y: np.ndarray, t: float) -> None:
    """`_check_rows` on a stacked (3, m) state, in place: the same tests,
    messages and clip."""
    if not np.isfinite(Y).all():
        raise _nonfinite(t)
    s, i, r = Y
    if (np.minimum(np.minimum(s, i), r) < -1e-12 * np.maximum(1.0, s + i + r)).any():
        raise _below_floor(t)
    np.maximum(Y, 0.0, out=Y)


def _float_block(p: ModelParams, x0: np.ndarray, b, steps: list, check: bool) -> tuple:
    """Step the rows of x0 (m, 3) on Python floats through `steps` of the
    grid, from the levels b; with `check`, each step passes `_check_rows`.
    Returns the block (k+1, m, 3) and its levels."""
    rows = x0.tolist()
    states, levels = [rows], [b]
    for t, h, t_next, rate in steps:
        b0, bm, b = rate(b, t, h, t_next)
        if isinstance(b, list):
            rows = [_rk4(p, s, i, r, h, c0, cm, c1)
                    for (s, i, r), c0, cm, c1 in zip(rows, b0, bm, b)]
        else:
            rows = [_rk4(p, s, i, r, h, b0, bm, b) for s, i, r in rows]
        if check:
            rows = _check_rows(rows, t_next)
        states.append(rows)
        levels.append(b)
    return np.array(states, dtype=float).reshape(len(states), len(x0), 3), levels


def _stacked_block(p: ModelParams, m: int):
    """`_float_block` on one stacked (3, m) state: its steps are written in
    place into a block buffer that every block reuses, and the block is
    returned as a fresh (k+1, m, 3) copy."""
    step = _stacked_rk4(p, m)
    buf = np.empty((_BLOCK_STEPS + 1, 3, m))

    def block(x0: np.ndarray, b, steps: list, check: bool) -> tuple:
        buf[0] = x0.T
        levels = [b]
        for k, (t, h, t_next, rate) in enumerate(steps, 1):
            b0, bm, b = rate(b, t, h, t_next)
            step(buf[k - 1], buf[k], h, b0, bm, b)
            if check:
                _check_stacked(buf[k], t_next)
            levels.append(b)
        return buf[:len(steps) + 1].transpose(0, 2, 1).copy(), levels

    return block


def _checked_block(block, x0: np.ndarray, b, steps: list) -> tuple:
    """The block of `steps` from x0 and b, stepped by `block` without the
    state check and then tested once.  It is kept when every new value is
    finite and +0.0 or positive, which is exactly when no step's check would
    raise or clip.  Otherwise it is replayed with the check after every
    step, under the caller's errstate.  The unchecked run raises on each
    floating-point error that the caller does not ignore, and such a block
    is replayed too, so numpy warns or raises as if every step had been
    checked."""
    strict = {kind: "ignore" if how == "ignore" else "raise" for kind, how in np.geterr().items()}
    try:
        with np.errstate(**strict):
            X, levels = block(x0, b, steps, False)
        if np.isfinite(X[1:]).all() and not np.signbit(X[1:]).any():
            return X, levels
    except FloatingPointError:
        pass
    return block(x0, b, steps, True)


def integrate_batch(p: ModelParams, X0: np.ndarray, sig: InputSignal | Sequence[InputSignal],
                    t_end: float, dt: float = DEFAULT_DT, observer=None) -> np.ndarray:
    """RK4 for a batch of initial states; returns the final batch.

    `sig` is one InputSignal for every row or a sequence with one per row,
    whose breakpoints are merged.  `observer(t, X, b)` is invoked once per
    block of up to `_BLOCK_STEPS` accepted steps, with new arrays t (k+1,),
    X (k+1, m, 3) and b (k+1,), or (k+1, m) for a sequence, which it owns:
    writing to them changes nothing that follows, nor does writing to the
    returned batch.  Row 0 is the row the block starts from: (0, X0), then
    the previous block's last row.

    A batch of fewer than `_FLOAT_ROWS` rows steps every row on Python
    floats, a wider one steps one stacked (3, m) array.  Both feeds use the
    same step grid, blocks and state check, and give bit-identical results.
    Each block is stepped without the state check and tested once.  A block
    with a non-finite, negative or -0.0 value, or with a floating-point
    error that the caller's `np.errstate` does not ignore, is replayed with
    the check after every step, so NonFiniteState, its message, the clip at
    0 and numpy's warnings come as if every step had been checked.  Pure
    apart from the observer callback; safe to run concurrently on separate
    data.
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
    if len(X) < _FLOAT_ROWS:
        block, pack = functools.partial(_float_block, p), list
    else:
        block, pack = _stacked_block(p, len(X)), np.array
    b, t = _start_levels(signals, pack), 0.0
    grid = _grid(signals, t_end, dt, pack)
    while steps := list(itertools.islice(grid, _BLOCK_STEPS)):
        Xb, levels = _checked_block(block, X, b, steps)
        X, b = Xb[-1].copy(), levels[-1]  # the observer owns Xb
        if observer is not None:
            observer(np.array([t, *(t_next for _, _, t_next, _ in steps)]), Xb,
                     np.array(levels))
        t = steps[-1][2]
    return X


def integrate(p: ModelParams, x0: State, sig: InputSignal, t_end: float,
              dt: float = DEFAULT_DT, record_every: int = 1) -> Trajectory:
    """Integrate from x0 and record every `record_every`-th step plus the last.

    Each recorded input is the level the step into that row used, as at
    interior switch times, so the recorded rows do not depend on
    `record_every`.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    blocks = [([0.0], x0.as_array()[None, :], [sample_input(sig, 0.0)])]
    integrate_batch(p, x0.as_array()[None, :], sig, t_end, dt,
                    observer=lambda t, X, b: blocks.append((t[1:], X[1:, 0], b[1:])))
    t, X, b = (np.concatenate(column) for column in zip(*blocks))
    keep = np.arange(len(t)) % record_every == 0  # row j is the state after step j
    keep[-1] = True
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
    signals = [Constant(c) for c in cs.tolist()]  # Python floats step fastest
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

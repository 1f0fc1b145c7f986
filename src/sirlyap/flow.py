"""Fixed-step RK4 with no numpy: input signals, the step grid, the block
stepper with its Python-float feed, and the trajectory CSV.

An input signal is the newborn/immigration rate B(t).  The step grid cuts
[0, t_end] at the switch times of every input and each segment between them
into equal steps of at most dt, which preserves the classical order of the
method across a discontinuous input.  Input levels are read once per
segment: the level of a piecewise-constant signal at the segment start,
while a continuous one is evaluated at each step's midpoint and end, and
its value at the step's start is the previous step's end.

`blocks` is the one block stepper of both integrator feeds: it steps a
state through blocks of up to `_BLOCK_STEPS` grid steps with the RK4 step
and state check it is given.  The state check runs once per block: a block
is stepped without it and its new values are tested together.  Values that
are all finite and +0.0 or positive are exactly those no step's check would
reject or clip; any other block is replayed from its first state with the
check after every step.  `float_blocks` feeds it a few rows in lockstep,
each on Python floats under its own scalar B(t).

`trajectory_rows` yields the rows of one solution, one per step, block by
block.  `python -m sirlyap.cli simulate` streams them into its CSV through
`write_trajectory`, and `ode.integrate` collects them into a Trajectory.
`ode` builds the array API on this module: `integrate_batch` steps narrow
batches with `float_blocks` and wide ones through `blocks` on stacked
arrays, bit-identically.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path

from .errors import NonFiniteState
from .model import ModelParams, Record, State, decode_number, decode_pairs, rhs_arrays

DEFAULT_DT = 0.01
_BLOCK_STEPS = 512  # steps per block: a 50-row observer block stays under 1 MB


# ---------------------------------------------------------------------------
# input signals
# ---------------------------------------------------------------------------

class InputSignal(Record):
    """Newborn/immigration rate B(t) >= 0 defined for t >= 0.

    Each kind is a `model.Record` that names, once, its `kind` in a
    config's signal object and the `keys` there of its fields, in field
    order; `signal_from_dict` and `signal_to_dict` read both.  A signal
    object holds exactly `kind` and those keys, and each number in it is
    read with `model.decode_number`."""

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


class Constant(InputSignal):
    c: float

    kind, keys = "constant", ("value",)
    piecewise_constant = True

    def _check(self):
        if self.c < 0.0:
            raise ValueError("constant input must be nonnegative")

    def value(self, t: float) -> float:
        return self.c


class Step(InputSignal):
    t_switch: float
    c_before: float
    c_after: float

    kind, keys = "step", ("t_switch", "before", "after")
    piecewise_constant = True

    def _check(self):
        if min(self.c_before, self.c_after) < 0.0:
            raise ValueError("step levels must be nonnegative")

    def value(self, t: float) -> float:
        return self.c_after if t >= self.t_switch else self.c_before

    def breakpoints(self, t_end: float) -> list:
        return [self.t_switch] if 0.0 < self.t_switch < t_end else []


class Piecewise(InputSignal):
    """Left-closed segments: level c_i applies on [t_i, t_{i+1})."""

    points: tuple  # ((t_0, c_0), (t_1, c_1), ...) with t_0 <= 0 recommended

    kind, keys = "piecewise", ("points",)
    piecewise_constant = True

    def _check(self):
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


class Sinusoid(InputSignal):
    """max(0, mean + amplitude*sin(omega*t)); the clip keeps B nonnegative."""

    mean: float
    amplitude: float
    angular_frequency: float

    kind, keys = "sinusoid", ("mean", "amplitude", "angular_frequency")

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


_SIGNALS = (Constant, Step, Piecewise, Sinusoid)
#: a signal field from its config value, and back, by the field's annotation
_DECODE = {"float": decode_number,
           "tuple": lambda key, pts: tuple(map(tuple, decode_pairs(key, pts)))}
_ENCODE = {"float": lambda x: x, "tuple": lambda pts: [list(pt) for pt in pts]}


def signal_from_dict(d: dict) -> InputSignal:
    """The signal of the config object d, which holds exactly its kind's
    `kind` and `keys`; a value is decoded by its field's annotation."""
    cls = next((c for c in _SIGNALS if c.kind == d.get("kind")), None)
    if cls is None:
        raise ValueError(f"unknown signal kind {d.get('kind')!r}")
    if set(d) != {"kind", *cls.keys}:
        raise ValueError(f"a {cls.kind} signal takes exactly the keys {['kind', *cls.keys]}, "
                         f"got {list(d)}")
    return cls(*(_DECODE[cls.__annotations__[name]](f"signal.{key}", d[key])
                 for name, key in zip(cls._fields, cls.keys)))


def signal_to_dict(sig: InputSignal) -> dict:
    if type(sig) not in _SIGNALS:
        raise ValueError(f"unsupported signal type {type(sig)!r}")
    return {"kind": sig.kind, **{key: _ENCODE[sig.__annotations__[name]](value)
                                 for (name, value), key in zip(sig.as_dict().items(), sig.keys)}}


# ---------------------------------------------------------------------------
# the step grid
# ---------------------------------------------------------------------------

def _check_span(t_end: float, dt: float) -> None:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")


def _segments(signals: list, t_end: float) -> list:
    cuts = sorted(set().union(*(sig.breakpoints(t_end) for sig in signals)))
    edges = [0.0] + cuts + [t_end]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def _n_steps(t0: float, t1: float, dt: float) -> int:
    """Equal steps <= dt that cut the segment [t0, t1]."""
    return max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))


def _start_levels(signals: list, pack):
    """B at t = 0, one level per row: a scalar for one row, else `pack`ed."""
    b = [sig.value(0.0) for sig in signals]
    return b[0] if len(b) == 1 else pack(b)


def _rates(signals: list, a: float, pack):
    """The input levels of the segment starting at a, as a function
    rate(b, t, h, t_next) -> (b0, bm, b1): B at the start, midpoint and end
    of a step, given b, the levels the step before ended on, one per row.
    For one row each is a scalar, its held level `pack`ed once per segment;
    for more rows each is `pack`ed.

    A piecewise-constant signal holds its level at a (segments are
    left-closed), read here once.  A continuous one is evaluated at t + h/2
    and t_next only: its B(t) is the step before's B(t_next), which it took
    at the same float t.  With more than one row, b0 is b itself after the
    segment's first step (t == a exactly, as `_grid` yields it), since b
    then already holds this segment's held levels; the test reads t, not a
    flag, so a block replayed from a segment start builds it again."""
    held = [sig.value(a) if sig.piecewise_constant else None for sig in signals]
    if len(signals) == 1:
        c, f = held[0], signals[0].value
        if c is not None:
            return lambda b, t, h, t_next, bc=(pack(c),) * 3: bc
        return lambda b, t, h, t_next: (b, f(t + 0.5 * h), f(t_next))
    moving = [(j, sig.value) for j, sig in enumerate(signals) if held[j] is None]
    held = pack([0.0 if c is None else c for c in held])
    if not moving:
        return lambda b, t, h, t_next, bc=(held, held, held): bc

    def rate(b, t, h, t_next):
        b0 = b
        if t == a:
            b0 = held.copy()
            for j, _ in moving:
                b0[j] = b[j]
        bm, b1 = held.copy(), held.copy()
        for j, f in moving:
            bm[j], b1[j] = f(t + 0.5 * h), f(t_next)
        return b0, bm, b1

    return rate


def _grid(signals: list, t_end: float, dt: float, pack):
    """Yield (t, h, t_next, rate) for each RK4 step from 0 to t_end, every
    segment between switch times cut into `_n_steps` equal steps; `rate` is
    the segment's `_rates`."""
    for t0, t1 in _segments(signals, t_end):
        rate = _rates(signals, t0, pack)
        n = _n_steps(t0, t1, dt)
        h = (t1 - t0) / n
        for j in range(n):
            yield t0 + j * h, h, t1 if j == n - 1 else t0 + (j + 1) * h, rate  # land on t1


def step_blocks(signals: list, t_end: float, dt: float, pack):
    """The steps of `_grid`, in lists of up to `_BLOCK_STEPS`."""
    grid = _grid(signals, t_end, dt, pack)
    while steps := list(itertools.islice(grid, _BLOCK_STEPS)):
        yield steps


# ---------------------------------------------------------------------------
# the float stepper
# ---------------------------------------------------------------------------

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


def _block(step, check_state, x, b, steps: list, check: bool) -> tuple:
    """Step the state x through `steps` of the grid from the levels b, each
    step by `step(x, h, b0, bm, b1)`; with `check`, each new state passes
    `check_state(x, t)`.  Returns the block, its k+1 states and k+1 levels."""
    states, levels = [x], [b]
    for t, h, t_next, rate in steps:
        b0, bm, b = rate(b, t, h, t_next)
        x = step(x, h, b0, bm, b)
        if check:
            x = check_state(x, t_next)
        states.append(x)
        levels.append(b)
    return states, levels


def _clean(states: list) -> bool:
    """True when every value after the block's first row is finite and +0.0
    or positive, which is exactly when no step's check would raise or clip.
    A finite sum means finite values (a sum that overflows only costs a
    replay); with those, the least value decides, and a 0 its sign."""
    values = list(itertools.chain.from_iterable(itertools.chain.from_iterable(states[1:])))
    if not values:
        return True
    if not math.isfinite(sum(values)):
        return False
    lo = min(values)
    return lo > 0.0 or lo == 0.0 and all(x or math.copysign(1.0, x) > 0.0 for x in values)


def blocks(step, check_state, clean, unchecked, x, signals: list, t_end: float, dt: float, pack):
    """Step the state x from t = 0 to t_end under `signals`, one per row,
    and yield (steps, states, levels) for each block of up to
    `_BLOCK_STEPS` grid steps: states[0] and levels[0] are the state and
    levels the block starts from, states[k] and levels[k] those after
    steps[k-1].  `pack` puts a list of levels, one per row, or the
    held level of a single row in the form `step` takes.

    Each block is stepped by `step` without the state check, inside the
    context `unchecked()`, and kept when `clean(states)`.  Otherwise, or when
    the unchecked run raised FloatingPointError, it is replayed from its
    first state with `check_state` after every step, so the state check's
    error, its message and the clip at 0 come as if every step had been
    checked."""
    b = _start_levels(signals, pack)
    for steps in step_blocks(signals, t_end, dt, pack):
        try:
            with unchecked():
                states, levels = _block(step, check_state, x, b, steps, False)
        except FloatingPointError:
            states = None
        if states is None or not clean(states):
            states, levels = _block(step, check_state, x, b, steps, True)
        yield steps, states, levels
        x, b = states[-1], levels[-1]


def float_blocks(p: ModelParams, rows: list, signals: list, t_end: float, dt: float):
    """`blocks` for `rows`, a list of (S, I, R) Python floats, each row
    stepped by `_rk4` under its own scalar levels and checked by
    `_check_rows`: a state is a list of rows, and levels stay Python
    floats and lists."""
    # loops, not comprehensions: one frame less a step
    if len(signals) == 1:  # one row: scalar levels, for the whole run
        def step(rows, h, b0, bm, b1):
            out = []
            for s, i, r in rows:
                out.append(_rk4(p, s, i, r, h, b0, bm, b1))
            return out
    else:  # a list of levels, one per row
        def step(rows, h, b0, bm, b1):
            out = []
            for (s, i, r), c0, cm, c1 in zip(rows, b0, bm, b1):
                out.append(_rk4(p, s, i, r, h, c0, cm, c1))
            return out
    return blocks(step, _check_rows, _clean, nullcontext, rows, signals, t_end, dt,
                  lambda b: b)


def trajectory_rows(p: ModelParams, x0: State, sig: InputSignal, t_end: float, dt: float):
    """Yield the rows (t, S, I, R, B) of the RK4 solution from x0, one per
    step of the grid, Python-float tuples in one list per block of steps.

    Row j is the state after step j of the grid and B the level that step
    used (B(0) for row 0), as at interior switch times.  Raises ValueError,
    as a Trajectory does, when the times are not strictly increasing.
    """
    _check_span(t_end, dt)
    row = (float(x0.s), float(x0.i), float(x0.r))
    t_prev = 0.0  # the time of the last row yielded
    yield [(0.0, *row, sig.value(0.0))]
    for steps, states, levels in float_blocks(p, [row], [sig], t_end, dt):
        rows = [(t_next, *x, b)
                for (_, _, t_next, _), (x,), b in zip(steps, states[1:], levels[1:])]
        times = [t_prev, *(row[0] for row in rows)]
        if not all(map(operator.lt, times, times[1:])):
            raise ValueError("times must be strictly increasing")
        t_prev = times[-1]
        yield rows


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

@contextmanager
def text_file(path):
    """`path` open for text, which goes to a temporary file beside `path`.
    That file replaces `path` when the block ends and is removed if it
    raises, so a failed write leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: str, blocks, line) -> int:
    """Write the CSV `path` through `text_file`: the `header` line, then
    `line(*row)` for every row of each block (a list of rows) of `blocks`,
    one block of text at a time.  Lines end in "\r\n", as the csv module's.
    Returns the number of rows."""
    n = 0
    with text_file(path) as fh:
        fh.write(header + "\r\n")
        for block in blocks:
            fh.write("".join(itertools.starmap(line, block)))
            n += len(block)
    return n


def write_trajectory(path, blocks) -> int:
    """Write the trajectory CSV `path`, in the one row format of every
    trajectory CSV, from `blocks` of (t, S, I, R, B) rows such as
    `trajectory_rows` yields; returns the number of rows."""
    return write_csv(path, "t,S,I,R,B", blocks, "{!r},{!r},{!r},{!r},{!r}\r\n".format)

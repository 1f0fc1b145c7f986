"""The array API of the RK4 integration, built on `flow`.

`integrate_batch` is the one integrator of batches, for states under one
shared input or one input per row; `steady_state` runs through it, and
`integrate` records one solution as a `Trajectory` from `flow`'s row
stream.  Its observer sees blocks of steps, each a short recorded
trajectory, so a check along trajectories is one array reduction per block.

`integrate_batch` is fed two ways by batch width.  A narrow batch steps
every row in lockstep on Python floats with `flow.float_blocks`, which
avoids the per-step numpy overhead that dominates small arrays.  A wide one
steps one stacked (3, m) array, whose rows are S, I and R, so each stage
argument and the final combination is one array operation; its steps are
written in place into a block buffer that is reused from block to block.
Either way the observer receives a fresh (k+1, m, 3) array per block, which
it owns.  Both ways share `flow`'s step grid, blocks, once-per-block state
check and input levels, and evaluate the same floating-point operations in
the same order, so their results are bit-identical.

The signal names (`Constant`, `Step`, ..., `signal_from_dict`) live in
`flow` and are re-exported here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import flow
from .errors import NotConverged
from .flow import (DEFAULT_DT, Constant, InputSignal, Piecewise, Sinusoid,  # noqa: F401
                   Step, sample_input, signal_from_dict, signal_to_dict)
from .model import EquilibriumKind, ModelParams, State, rhs_arrays

# Batches narrower than this step row by row on Python floats, wider ones on
# one stacked array.  A float step costs about 2.1 us a row under one shared
# Constant and 2.2 us with one Constant per row, a stacked step 41-46 us
# whatever the width, so the two cross at 21-22 rows for a shared input and
# 20-21 rows for per-row ones (measured on a 2-vCPU Xeon VM).
_FLOAT_ROWS = 21
_CSV_BLOCK = 4096  # rows per block of CSV text


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
        flow.write_trajectory(path, _row_blocks([self.times[rows], self.states[rows],
                                                 self.inputs[rows]]))


def _row_blocks(columns: Sequence[np.ndarray]):
    """The rows of the stacked `columns` (arrays of equal length) as lists of
    Python floats, _CSV_BLOCK rows at a time, so the text written from them
    stays bounded."""
    for a in range(0, len(columns[0]), _CSV_BLOCK):
        yield np.column_stack([c[a:a + _CSV_BLOCK] for c in columns]).tolist()


def write_rows(fh, columns: Sequence[np.ndarray], line) -> int:
    """`flow.write_rows` for the rows of the stacked `columns`."""
    return flow.write_rows(fh, _row_blocks(columns), line)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _stacked_rk4(p: ModelParams, m: int):
    """`flow._rk4` on stacked (3, m) states: a function step(Y, out, h, b0,
    bm, b1) that writes the step from Y into `out`, each b a scalar or one
    value per row.  It runs the same operations in the same order, each one
    array operation over the rows S, I, R, with the stage derivatives and
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
    """`flow._check_rows` on a stacked (3, m) state, in place: the same
    tests, messages and clip."""
    if not np.isfinite(Y).all():
        raise flow._nonfinite(t)
    s, i, r = Y
    if (np.minimum(np.minimum(s, i), r) < -1e-12 * np.maximum(1.0, s + i + r)).any():
        raise flow._below_floor(t)
    np.maximum(Y, 0.0, out=Y)


def _stacked_block(p: ModelParams, m: int):
    """`flow._float_block` on one stacked (3, m) state: its steps are written
    in place into a block buffer that every block reuses, and the block is
    returned as a fresh (k+1, m, 3) copy."""
    step = _stacked_rk4(p, m)
    buf = np.empty((flow._BLOCK_STEPS + 1, 3, m))

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


def _stacked_blocks(p: ModelParams, X: np.ndarray, signals: list, t_end: float, dt: float):
    """`flow.float_blocks` on one stacked state: yield (steps, X, levels) per
    block, X a fresh (k+1, m, 3) array that the caller owns."""
    block = _stacked_block(p, len(X))
    b = flow._start_levels(signals, np.array)
    for steps in flow.step_blocks(signals, t_end, dt, np.array):
        Xb, levels = _checked_block(block, X, b, steps)
        X, b = Xb[-1].copy(), levels[-1]
        yield steps, Xb, levels


def integrate_batch(p: ModelParams, X0: np.ndarray, sig: InputSignal | Sequence[InputSignal],
                    t_end: float, dt: float = DEFAULT_DT, observer=None) -> np.ndarray:
    """RK4 for a batch of initial states; returns the final batch.

    `sig` is one InputSignal for every row or a sequence with one per row,
    whose breakpoints are merged.  `observer(t, X, b)` is invoked once per
    block of up to `flow._BLOCK_STEPS` accepted steps, with new arrays t
    (k+1,), X (k+1, m, 3) and b (k+1,), or (k+1, m) for a sequence, which it
    owns: writing to them changes nothing that follows, nor does writing to
    the returned batch.  Row 0 is the row the block starts from: (0, X0),
    then the previous block's last row.

    A batch of fewer than `_FLOAT_ROWS` rows steps every row on Python
    floats (`flow.float_blocks`), a wider one steps one stacked (3, m)
    array.  Both feeds use the same step grid, blocks and state check, and
    give bit-identical results.  Each block is stepped without the state
    check and tested once.  A block with a non-finite, negative or -0.0
    value, or, on the stacked feed, with a floating-point error that the
    caller's `np.errstate` does not ignore, is replayed with the check
    after every step, so NonFiniteState, its message, the clip at 0 and
    numpy's warnings come as if every step had been checked.  Pure apart
    from the observer callback; safe to run concurrently on separate data.
    """
    flow._check_span(t_end, dt)
    X = np.array(X0, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("X0 must have shape (m, 3)")
    signals = [sig] if isinstance(sig, InputSignal) else list(sig)
    m = len(X)
    if len(signals) != 1 and len(signals) != m:
        raise ValueError("need one signal, or one signal per row of X0")
    if m < _FLOAT_ROWS:
        blocks = flow.float_blocks(p, X.tolist(), signals, t_end, dt)
    else:
        blocks = _stacked_blocks(p, X, signals, t_end, dt)
    t = 0.0
    for steps, Xb, levels in blocks:
        X = np.array(Xb[-1], dtype=float).reshape(m, 3)  # a copy: the observer owns Xb
        if observer is not None:
            observer(np.array([t, *(t_next for _, _, t_next, _ in steps)]),
                     np.asarray(Xb, dtype=float).reshape(len(levels), m, 3), np.array(levels))
        t = steps[-1][2]
    return X


def integrate(p: ModelParams, x0: State, sig: InputSignal, t_end: float,
              dt: float = DEFAULT_DT, record_every: int = 1) -> Trajectory:
    """Integrate from x0 and record every `record_every`-th step plus the
    last: the rows of `flow.trajectory_rows` as arrays.

    Each recorded input is the level the step into that row used, as at
    interior switch times, so the recorded rows do not depend on
    `record_every`.
    """
    rows = np.fromiter(itertools.chain.from_iterable(
        flow.trajectory_rows(p, x0, sig, t_end, dt, record_every)), dtype=(float, 5))
    return Trajectory(rows[:, 0], rows[:, 1:4], rows[:, 4])


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

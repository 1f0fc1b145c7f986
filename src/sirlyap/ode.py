"""The array API of the RK4 integration, built on `flow`.

`integrate_batch` is the one integrator of batches, each row under its own
input, and `integrate` records one solution as a `Trajectory` from
`flow`'s row stream.  Its observer sees blocks of steps,
each a short recorded trajectory, so a check along trajectories is one array
reduction per block.

`integrate_batch` is fed two ways by batch width, both through
`flow.blocks`, the one block loop with its once-per-block state check and
replay rule, and both checked by `flow._check_rows`, the one state check;
each feed supplies only its RK4 step, clean test and the context of its
unchecked pass, whose floating-point errors the stacked feed raises
(`_strict`).  A narrow batch steps every row in
lockstep on Python floats with `flow.float_blocks`, which avoids the
per-step numpy overhead that dominates small arrays.  A wide one steps one
stacked (3, m) array, whose rows are S, I and R, so each stage argument and
the final combination is one array operation and each stage derivative seven
(`model.rhs_stacked`), on row views of its reused arrays made once per
batch; the feeds cross over at `_FLOAT_ROWS` rows.  Either
way the observer receives a fresh (k+1, m, 3) array per block, which it
owns.  Both feeds evaluate the same floating-point operations in the same
order, so their results are bit-identical.

The signal names (`Constant`, `Step`, ..., `signal_from_dict`) live in
`flow` and are re-exported here.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import flow
from .flow import (DEFAULT_DT, Constant, InputSignal, Piecewise, Sinusoid,  # noqa: F401
                   Step, signal_from_dict, signal_to_dict)
from .model import ModelParams, Record, State, rhs_stacked

# Batches narrower than this step row by row on Python floats, wider ones on
# one stacked array.  A float step costs about 1.6 us a row with one Constant
# per row, a stacked step about 13.5 us whatever the width, so the two cross
# near 9 rows (best of 7 runs of 2,000 steps, Python 3.11, numpy 2.4, a
# 2-vCPU Xeon VM).
_FLOAT_ROWS = 9
_CSV_BLOCK = 4096  # rows per block of CSV text


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class Trajectory(Record):
    """Recorded solution: times (n,), states (n, 3), inputs (n,)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def _check(self):
        if not (len(self.times) == len(self.states) == len(self.inputs)):
            raise ValueError("times, states and inputs must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        """Write one `t,S,I,R,B` row per record, the rows _CSV_BLOCK at a
        time as lists of Python floats, so the text written from them stays
        bounded."""
        columns = [self.times, self.states, self.inputs]
        blocks = (np.column_stack([c[a:a + _CSV_BLOCK] for c in columns]).tolist()
                  for a in range(0, len(self.times), _CSV_BLOCK))
        flow.write_trajectory(path, blocks)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _stacked_rk4(p: ModelParams, m: int):
    """`flow._rk4` on stacked (3, m) states: a function step(Y, h, b0, bm,
    b1) that returns the step from Y as a new (3, m) array, each b one value
    per row.  It runs the same operations in the same order, each one array
    operation over the rows S, I, R: `model.rhs_stacked` writes each stage
    derivative into its row of a (4, 3, m) workspace, and the stage
    arguments and sums go to one (3, m) array Z; every step reuses both, and
    their row views are made once, so a step makes only the two views Y[0]
    and Y[1] of its incoming state.  The step scalars 0.5*h, h
    and h/6 enter as 0-d arrays, built again only when h changes, since a
    Python float costs a call about 1.5 times as much; 2*x is x + x."""
    K, Z = np.empty((4, 3, m)), np.empty((3, m))
    k1, k2, k3, k4 = K
    f1, f2, f3, f4 = (rhs_stacked(p, k) for k in K)
    zs, zi = Z[0], Z[1]
    mul, add = np.multiply, np.add
    h_now = half = whole = sixth = None

    def step(Y: np.ndarray, h: float, b0, bm, b1) -> np.ndarray:
        nonlocal h_now, half, whole, sixth
        if h != h_now:
            h_now, half, whole, sixth = h, np.array(0.5 * h), np.array(h), np.array(h / 6.0)
        f1(Y, Y[0], Y[1], b0)
        mul(k1, half, Z)
        add(Y, Z, Z)
        f2(Z, zs, zi, bm)
        mul(k2, half, Z)
        add(Y, Z, Z)
        f3(Z, zs, zi, bm)
        mul(k3, whole, Z)
        add(Y, Z, Z)
        f4(Z, zs, zi, b1)
        add(k2, k3, Z)
        add(Z, Z, Z)
        add(k1, Z, Z)
        add(Z, k4, Z)
        mul(Z, sixth, Z)
        return Y + Z

    return step


def _clean_stacked(states: list) -> bool:
    """`flow._clean` on a block of stacked states."""
    return bool(np.isfinite(S := np.concatenate(states[1:])).all() and not np.signbit(S).any())


def _strict():
    """The caller's np.errstate with every floating-point error it does not
    ignore raised, so the unchecked run of a block stops at it."""
    return np.errstate(**{kind: "ignore" if how == "ignore" else "raise"
                          for kind, how in np.geterr().items()})


def integrate_batch(p: ModelParams, X0: np.ndarray, signals: Sequence[InputSignal],
                    t_end: float, dt: float = DEFAULT_DT, observer=None) -> np.ndarray:
    """RK4 for a batch of initial states; returns the final batch.

    `signals` holds one InputSignal per row of X0; their breakpoints are
    merged.  `observer(t, X, b)` is invoked once per block of up to
    `flow._BLOCK_STEPS` accepted steps, with new arrays t (k+1,), X
    (k+1, m, 3) and b (k+1, m), which it owns: writing to them changes
    nothing that follows, nor does writing to the returned batch.  Row 0 is
    the row the block starts from: (0, X0), then the previous block's last
    row.

    A batch of fewer than `_FLOAT_ROWS` rows steps every row on Python
    floats (`flow.float_blocks`), a wider one steps one stacked (3, m)
    array.  Both run through `flow.blocks`, so they share the step grid, the
    blocks and the once-per-block state check `flow._check_rows`, which the
    stacked feed runs on its state's rows, with its replay (on the stacked
    feed also for a floating-point error that the caller's `np.errstate`
    does not ignore): NonFiniteState, its message, the clip at 0 and numpy's
    warnings come as if every step had been checked, and the results are
    bit-identical.  Pure apart from the observer callback; safe
    to run concurrently on separate data.
    """
    flow._check_span(t_end, dt)
    X = np.array(X0, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("X0 must have shape (m, 3)")
    m = len(X)
    if not isinstance(signals, Sequence) or len(signals) != m:
        raise ValueError("need a sequence of one signal per row of X0")
    if m < _FLOAT_ROWS:
        blocks = flow.float_blocks(p, X.tolist(), signals, t_end, dt)

        def stack(states: list) -> np.ndarray:
            return np.array(states, dtype=float).reshape(len(states), m, 3)
    else:
        blocks = flow.blocks(_stacked_rk4(p, m),
                             lambda Y, t: np.array(flow._check_rows(Y.T.tolist(), t)).T,
                             _clean_stacked, _strict, X.T.copy(), signals, t_end, dt, np.array)

        def stack(states: list) -> np.ndarray:
            return np.array(states).transpose(0, 2, 1).copy()
    states, t = None, 0.0
    for steps, states, levels in blocks:
        if observer is not None:
            observer(np.array([t, *(t_next for _, _, t_next, _ in steps)]), stack(states),
                     np.array(levels).reshape(len(levels), m))
        t = steps[-1][2]
    return X if states is None else stack(states[-1:])[0]  # a fresh (m, 3) array


def integrate(p: ModelParams, x0: State, sig: InputSignal, t_end: float,
              dt: float = DEFAULT_DT) -> Trajectory:
    """Integrate from x0 and record every step: the rows of
    `flow.trajectory_rows` as arrays.

    Each recorded input is the level the step into that row used, as at
    interior switch times.
    """
    rows = np.fromiter(itertools.chain.from_iterable(
        flow.trajectory_rows(p, x0, sig, t_end, dt)), dtype=(float, 5))
    return Trajectory(rows[:, 0], rows[:, 1:4], rows[:, 4])


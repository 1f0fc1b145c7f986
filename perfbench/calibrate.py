"""Machine-speed probe: a fixed unit of work timed between benchmark commands.

The benchmark's host shares its vCPUs with other tenants, and their speed
drifts by tens of percent over minutes.  One unit here does a fixed amount of
work of the same kinds the program does, using only numpy and this file, so
no change to sirlyap can make it faster or slower:

- a 1-row RK4 loop on small numpy arrays (the shape of `ode` at one row),
- bulk elementwise numpy on 100k-element arrays (the shape of `levelset`),
- formatting floats into CSV text (the shape of the trajectory writer).

`run.py` divides each round's wall time by the mean unit time of the same
measuring window, so a stretch in which the whole machine is slow scales
both and cancels.

    python3 perfbench/calibrate.py 20    # time 20 units, one per line, in ms
"""
from __future__ import annotations

import sys
import time

import numpy as np

_RK4_STEPS = 120
_BULK = np.linspace(0.0, 1.0, 100_000)
_ROWS = 360


def _rhs(x: np.ndarray) -> np.ndarray:
    s, i, r = x[:, 0], x[:, 1], x[:, 2]
    infect = 2e-4 * i * s
    return np.stack((3.0 - 0.01 * s - infect, infect - 0.04 * i, 0.03 * i - 0.01 * r), axis=1)


def _work() -> float:
    x = np.array([[300.0, 20.0, 80.0]])
    h = 0.05
    for _ in range(_RK4_STEPS):
        k1 = _rhs(x)
        k2 = _rhs(x + 0.5 * h * k1)
        k3 = _rhs(x + 0.5 * h * k2)
        k4 = _rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    acc = float(x.sum())
    for _ in range(2):
        v = np.sqrt(_BULK * _BULK + 1.0) - np.abs(_BULK - 0.5)
        acc += float(v[v > 0.6].sum())
    rows = [f"{k * h!r},{acc + k!r},{acc - k!r},{k / 7.0!r}" for k in range(_ROWS)]
    return acc + len("\n".join(rows))


def unit() -> float:
    """Wall seconds of one unit of fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


if __name__ == "__main__":
    unit()  # warm-up
    for _ in range(int(sys.argv[1]) if len(sys.argv) > 1 else 10):
        print(f"{1000.0 * unit():.2f}")

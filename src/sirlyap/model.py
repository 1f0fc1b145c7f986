"""SIR model with demography: vector field, equilibria, reproduction number.

States are continuum population counts (S, I, R).  The newborn/immigration
rate B enters the susceptible equation as an external input.  numpy is
imported only by the array forms (`State.as_array`, `total_population_exact`,
`rhs_stacked`), so the scalar model loads without it.  `rhs_arrays` is the
one vector field: on Python floats it serves one state, on arrays a batch.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from enum import Enum

from .errors import DomainError, R0NotAboveOne

#: relative tolerance used to decide the reproduction-number boundary case
REGIME_BOUNDARY_RTOL = 1e-12


def decode_number(key: str, v) -> float:
    """The finite JSON number v, an int or a float, as a float: the one
    decoder of every number read from outside.  A bool, a string or any
    other value, and a non-finite one, is a ValueError that names `key`."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)  # the bound refuses inf, nan and an int too large for a float
    raise ValueError(f"{key} must be a finite number, got {v!r}")


def decode_pairs(key: str, v) -> list:
    """The JSON list v of [a, b] number pairs as a list of [float, float]."""
    if not (isinstance(v, list) and all(isinstance(ab, list) and len(ab) == 2 for ab in v)):
        raise ValueError(f"{key} must be a list of [a, b] number pairs, got {v!r}")
    return [[decode_number(key, a), decode_number(key, b)] for a, b in v]


class FloatRecord:
    """A frozen dataclass of float constants: `as_dict` keys them by field
    name in field order, and `from_dict` takes exactly those keys and
    reads each value with `decode_number`."""

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        names = [f.name for f in fields(cls)]
        if set(d) != set(names):
            raise ValueError(f"{cls.__name__} takes exactly the keys {names}, got {list(d)}")
        return cls(*(decode_number(f"{cls.__name__}.{name}", d[name]) for name in names))


@dataclass(frozen=True)
class ModelParams(FloatRecord):
    """Rate constants of the SIR model.

    beta:  transmission rate, 1/(individual * time)
    gamma: recovery rate, 1/time
    mu:    death rate, 1/time
    b_hat: nominal newborn/immigration rate, individuals/time
    """

    beta: float
    gamma: float
    mu: float
    b_hat: float

    def __post_init__(self):
        if not (self.beta > 0.0 and self.gamma > 0.0 and self.mu > 0.0):
            raise ValueError("beta, gamma and mu must be positive")
        if not self.b_hat >= 0.0:
            raise ValueError("b_hat must be nonnegative")


@dataclass(frozen=True)
class State:
    """Nonnegative population triple (S, I, R)."""

    s: float
    i: float
    r: float

    def __post_init__(self):
        if self.s < 0.0 or self.i < 0.0 or self.r < 0.0:
            raise ValueError("state components must be nonnegative")

    def as_array(self):
        """(S, I, R) as a numpy array."""
        import numpy as np
        return np.array([self.s, self.i, self.r], dtype=float)

    @property
    def n(self) -> float:
        """Total population S + I + R."""
        return self.s + self.i + self.r


class EquilibriumKind(Enum):
    DISEASE_FREE = "disease_free"
    ENDEMIC = "endemic"


@dataclass(frozen=True)
class Equilibrium:
    kind: EquilibriumKind
    point: State


class Regime(Enum):
    DISEASE_FREE_STABLE = "disease_free_stable"
    BOUNDARY = "boundary"
    ENDEMIC_EXISTS = "endemic_exists"
    ENDEMIC_THEOREM_APPLIES = "endemic_theorem_applies"


def r0_hat(p: ModelParams) -> float:
    """Basic reproduction number beta*b_hat / (mu*(gamma+mu))."""
    return p.beta * p.b_hat / (p.mu * (p.gamma + p.mu))


def disease_free_eq(p: ModelParams) -> Equilibrium:
    """Infection-free steady state (b_hat/mu, 0, 0)."""
    return Equilibrium(EquilibriumKind.DISEASE_FREE, State(p.b_hat / p.mu, 0.0, 0.0))


def endemic_eq(p: ModelParams) -> Equilibrium:
    """Interior steady state; exists only for reproduction number > 1."""
    r0 = r0_hat(p)
    if r0 <= 1.0:
        raise R0NotAboveOne(f"endemic equilibrium requires R0 > 1, got {r0:.6g}")
    s = (p.gamma + p.mu) / p.beta
    i = p.mu * (r0 - 1.0) / p.beta
    r = p.gamma * (r0 - 1.0) / p.beta
    return Equilibrium(EquilibriumKind.ENDEMIC, State(s, i, r))


def rhs_arrays(p: ModelParams, s, i, r, b):
    """Vectorised right-hand side; accepts scalars or numpy arrays."""
    infect = p.beta * i * s
    ds = b - p.mu * s - infect
    di = infect - (p.gamma + p.mu) * i
    dr = p.gamma * i - p.mu * r
    return ds, di, dr


def rhs_stacked(p: ModelParams, out):
    """`rhs_arrays` on stacked (3, m) states, whose rows are S, I and R,
    into the (3, m) array `out`: a function field(Y, s, i, b) that writes the
    derivative at Y into `out` and returns it, s and i being the rows Y[0]
    and Y[1] and b a scalar or one value per row.

    It runs `rhs_arrays`'s operations in the same order, seven ufunc calls
    over whole rows into `out` and one reused (2, m) scratch array, with each
    subtraction written as the addition of the negated term.  The rate
    coefficients are built here at full shape, so no call broadcasts (which
    costs a small array about 2.5 times a same-shape call), and the row
    views of `out` and of the scratch are made once, here.  IEEE arithmetic
    gives x - y == x + (-y) and x + y == y + x, signed zeros included, so
    the results are bit-identical to `rhs_arrays`'s.
    """
    import numpy as np
    m = out.shape[1]
    loss = np.repeat([[-p.mu], [-(p.gamma + p.mu)], [-p.mu]], m, axis=1)
    beta, gamma = np.repeat([[p.beta], [p.gamma]], m, axis=1)
    T = np.empty((2, m))
    infect, gi, ds, di_dr = T[0], T[1], out[0], out[1:]
    mul, add, sub = np.multiply, np.add, np.subtract

    def field(Y, s, i, b):
        mul(Y, loss, out)  # -mu*S, -(gamma+mu)*I, -mu*R
        mul(i, beta, infect)  # beta*I
        mul(i, gamma, gi)  # gamma*I
        mul(infect, s, infect)  # infect = beta*I*S
        add(di_dr, T, di_dr)  # dI = infect - (gamma+mu)*I, dR = gamma*I - mu*R
        add(b, ds, ds)  # b - mu*S
        sub(ds, infect, ds)  # dS = b - mu*S - infect
        return out

    return field


def total_population_bound(x0: State, b_max: float, p: ModelParams, t: float) -> float:
    """Upper envelope exp(-mu*t)*N(0) + b_max/mu for the total population.

    Valid for every N(0) whenever B(t) <= b_max, since dN = B - mu*N.  The
    form exp(-t)*N(0) + b_max/mu holds only when N(0) <= b_max/mu or mu >= 1.
    The exact solution for a constant rate is `total_population_exact`.
    """
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    return math.exp(-p.mu * t) * x0.n + b_max / p.mu


def total_population_exact(x0: State, c: float, p: ModelParams, t):
    """Closed-form N(t) for a constant newborn rate c, as a numpy array."""
    import numpy as np
    t = np.asarray(t, dtype=float)
    decay = np.exp(-p.mu * t)
    return decay * x0.n + (1.0 - decay) * c / p.mu


def classify_regime(p: ModelParams) -> Regime:
    """Place the parameters relative to the two theorem hypotheses."""
    r0 = r0_hat(p)
    if abs(r0 - 1.0) <= REGIME_BOUNDARY_RTOL:
        return Regime.BOUNDARY
    if r0 < 1.0:
        return Regime.DISEASE_FREE_STABLE
    if r0 > p.gamma / p.mu + 2.0:
        return Regime.ENDEMIC_THEOREM_APPLIES
    return Regime.ENDEMIC_EXISTS

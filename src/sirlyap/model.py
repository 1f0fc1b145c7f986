"""SIR model with demography: vector field, equilibria, reproduction number.

States are continuum population counts (S, I, R).  The newborn/immigration
rate B enters the susceptible equation as an external input.  numpy is
imported only by the array forms (`as_array`, `total_population_exact`), so
the scalar model loads without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, R0NotAboveOne

#: relative tolerance used to decide the reproduction-number boundary case
REGIME_BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
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

    def as_dict(self) -> dict:
        return {"beta": self.beta, "gamma": self.gamma, "mu": self.mu, "b_hat": self.b_hat}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        unknown = set(d) - {"beta", "gamma", "mu", "b_hat"}
        if unknown:
            raise ValueError(f"unknown ModelParams keys: {sorted(unknown)}")
        return cls(float(d["beta"]), float(d["gamma"]), float(d["mu"]), float(d["b_hat"]))


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


@dataclass(frozen=True)
class Deviation:
    """State relative to a chosen equilibrium, x_tilde = x - x_hat."""

    x1t: float
    x2t: float
    x3t: float

    def as_array(self):
        """(x1t, x2t, x3t) as a numpy array."""
        import numpy as np
        return np.array([self.x1t, self.x2t, self.x3t], dtype=float)

    @classmethod
    def from_state(cls, x: State, eq: Equilibrium) -> "Deviation":
        q = eq.point
        return cls(x.s - q.s, x.i - q.i, x.r - q.r)

    def to_state(self, eq: Equilibrium) -> State:
        q = eq.point
        s, i, r = q.s + self.x1t, q.i + self.x2t, q.r + self.x3t
        if min(s, i, r) < 0.0:
            raise DomainError("deviation leaves the physical orthant for this anchor")
        return State(s, i, r)

    def norm1(self) -> float:
        return abs(self.x1t) + abs(self.x2t) + abs(self.x3t)


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


def rhs(p: ModelParams, x: State, b: float) -> tuple:
    """Time derivative (dS, dI, dR) of one state under newborn rate b >= 0."""
    if b < 0.0:
        raise DomainError("newborn rate must be nonnegative")
    return rhs_arrays(p, x.s, x.i, x.r, b)


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

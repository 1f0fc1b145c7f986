"""SIR model with demography: vector field, equilibrium `State`s, reproduction number.

States are continuum population counts (S, I, R).  The newborn/immigration
rate B enters the susceptible equation as an external input.  numpy is
imported only by the array forms (`State.as_array`, `total_population_exact`,
`rhs_stacked`), so the scalar model loads without it.  `rhs_arrays` is the
one vector field: on Python floats it serves one state, on arrays a batch.
"""
from __future__ import annotations

import sys
from enum import Enum

from .errors import R0NotAboveOne

#: relative band around each regime threshold, R0 = 1 and R0 = gamma/mu + 2,
#: inside which neither theorem is applied
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


class Record:
    """An immutable record, like a frozen dataclass, without the import of
    `dataclasses` (which loads `inspect`, `ast` and `dis`) or its code
    generation per class.

    The fields are the names annotated in the class body, in order, and a
    value assigned there is the field's default; a list or dict default is
    copied for each record, so no two records share one.  A record is built
    from its fields by position or keyword, `_check` then validates it, and
    no field can be assigned afterwards.  It equals, and hashes with, only a
    record of its own type with equal fields.  Fields are plain instance
    attributes, not a namedtuple's: reading a namedtuple field costs about
    three times as much, and the float RK4 step reads the model's rates in
    every call of `rhs_arrays`."""

    _fields = ()    # the field names, in order
    _defaults = {}  # field name -> default

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)  # this class body's own, in order
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"got {len(args)} values and the keywords {sorted(kwargs)}")
        kwargs.update(zip(names, args))
        for name in names:
            object.__setattr__(self, name, kwargs[name] if name in kwargs else self._default(name))
        self._check()

    def _default(self, name: str):
        if name not in self._defaults:
            raise TypeError(f"{type(self).__name__} needs its field {name!r}")
        value = self._defaults[name]
        return value.copy() if isinstance(value, (list, dict)) else value

    def _check(self) -> None:
        """Raise ValueError for fields this record refuses."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def as_dict(self) -> dict:
        """The fields by name, in field order."""
        return dict(zip(self._fields, self._values()))

    def replace(self, **changes):
        """A record of this type with `changes` to its fields, checked again."""
        return type(self)(**{**self.as_dict(), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"


class FloatRecord(Record):
    """A record of float constants: `as_dict` keys them by field name in
    field order, and `from_dict` takes exactly those keys and reads each
    value with `decode_number`."""

    @classmethod
    def from_dict(cls, d: dict):
        names = list(cls._fields)
        if set(d) != set(names):
            raise ValueError(f"{cls.__name__} takes exactly the keys {names}, got {list(d)}")
        return cls(*(decode_number(f"{cls.__name__}.{name}", d[name]) for name in names))


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

    def _check(self):
        if not (self.beta > 0.0 and self.gamma > 0.0 and self.mu > 0.0):
            raise ValueError("beta, gamma and mu must be positive")
        if not self.b_hat >= 0.0:
            raise ValueError("b_hat must be nonnegative")


class State(Record):
    """Nonnegative population triple (S, I, R)."""

    s: float
    i: float
    r: float

    def _check(self):
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


class Regime(Enum):
    DISEASE_FREE_STABLE = "disease_free_stable"
    BOUNDARY = "boundary"
    ENDEMIC_EXISTS = "endemic_exists"
    ENDEMIC_THEOREM_APPLIES = "endemic_theorem_applies"


def r0_hat(p: ModelParams) -> float:
    """Basic reproduction number beta*b_hat / (mu*(gamma+mu))."""
    return p.beta * p.b_hat / (p.mu * (p.gamma + p.mu))


def disease_free_eq(p: ModelParams) -> State:
    """Infection-free steady state (b_hat/mu, 0, 0)."""
    return State(p.b_hat / p.mu, 0.0, 0.0)


def endemic_eq(p: ModelParams) -> State:
    """Interior steady state; exists only for reproduction number > 1."""
    r0 = r0_hat(p)
    if r0 <= 1.0:
        raise R0NotAboveOne(f"endemic equilibrium requires R0 > 1, got {r0:.6g}")
    s = (p.gamma + p.mu) / p.beta
    i = p.mu * (r0 - 1.0) / p.beta
    r = p.gamma * (r0 - 1.0) / p.beta
    return State(s, i, r)


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
    and Y[1] and b the levels, one per row.

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


def total_population_exact(x0: State, c: float, p: ModelParams, t):
    """Closed-form N(t) for a constant newborn rate c, as a numpy array."""
    import numpy as np
    t = np.asarray(t, dtype=float)
    decay = np.exp(-p.mu * t)
    return decay * x0.n + (1.0 - decay) * c / p.mu


def classify_regime(p: ModelParams) -> Regime:
    """Place the parameters relative to the two theorem hypotheses.

    Each threshold has the same relative band of `REGIME_BOUNDARY_RTOL`: R0
    within it of 1 is BOUNDARY, and the endemic theorem applies only for R0
    above gamma/mu + 2 by more than it, so a theorem's construction never
    meets the rounding of its own hypothesis."""
    r0 = r0_hat(p)
    if abs(r0 - 1.0) <= REGIME_BOUNDARY_RTOL:
        return Regime.BOUNDARY
    if r0 < 1.0:
        return Regime.DISEASE_FREE_STABLE
    if r0 > (p.gamma / p.mu + 2.0) * (1.0 + REGIME_BOUNDARY_RTOL):
        return Regime.ENDEMIC_THEOREM_APPLIES
    return Regime.ENDEMIC_EXISTS

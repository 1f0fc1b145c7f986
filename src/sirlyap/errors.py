"""Exception types shared across the package."""


class SirLyapError(Exception):
    """Base class for all library errors."""


class RegimeError(SirLyapError):
    """A theorem hypothesis on the basic reproduction number is violated."""


class R0NotAboveOne(RegimeError):
    """Endemic equilibrium requested while the reproduction number is <= 1."""


class InfeasibleOverride(SirLyapError):
    """A user-supplied Lyapunov parameter violates its feasibility condition."""


class DomainError(SirLyapError):
    """Argument lies outside the domain of the function."""


class OutOfH(DomainError):
    """Deviation lies outside the Lipschitz domain of the endemic function."""


class OnBoundary(SirLyapError):
    """Gradient requested within the band around a region boundary."""


class NonFiniteState(SirLyapError):
    """Integration produced a non-finite or significantly negative state."""


class NoConvergence(SirLyapError):
    """An iteration exhausted its budget: the feasibility shrink loop, the
    sublevel sampling or a steady state's time limit."""


class RangeError(SirLyapError):
    """Input signal leaves the admissible perturbation range."""


class ConfigError(SirLyapError):
    """Run configuration failed validation."""

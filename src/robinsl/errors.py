"""Exception types raised by the robinsl solvers."""


class RobinSLError(Exception):
    """Base class for all robinsl errors."""


class ZeroMass(RobinSLError):
    """The unit-mass sampler drew no potential with nonzero total integral."""


class NonFiniteState(RobinSLError):
    """Shooting state overflowed or degenerated to (0, 0)."""


class ToleranceNotReached(RobinSLError):
    """The root-find could not narrow its bracket to the requested tolerance."""


class NoConvergence(RobinSLError):
    """LAPACK failed to find the finite-difference oracle's eigenvalue."""

"""Closed forms for the delta strength that pins the first eigenvalue.

``delta_strength(mu, zeta, bc)`` returns the weight a such that a point mass
a*delta_zeta has first eigenvalue mu.  The formula changes with the sign of
mu: a tangent sum above zero, a rational expression at zero, and a
tanh/coth sum below zero.  The zeta-derivative is available in closed form in
every regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchUndefined
from .potential import RobinBC

#: |mu| below this is evaluated from the mu=0 formula plus a linear correction
ZERO_BAND = 1e-8
#: |nu - kappa| below this selects the exponential (middle) branch
BRANCH_TOL = 1e-12
#: margin used for the open domain conditions at positive mu
DOMAIN_MARGIN = 1e-12

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class PhaseOffsets:
    """Phase offsets alpha (left) and beta (right)."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class StrengthPoint:
    """Delta strength at (mu, zeta) plus the domain flag."""

    mu: float
    zeta: float
    value: float
    in_domain: bool


def _log_offset(nu, kappa):
    # 0.5*log((kappa+nu)/(kappa-nu)) for nu<kappa, swapped arguments above
    if abs(nu - kappa) < BRANCH_TOL:
        raise BranchUndefined(f"sqrt(|mu|) = {nu} coincides with coefficient {kappa}")
    return 0.5 * math.log((kappa + nu) / abs(kappa - nu))


def phase_offsets(mu: float, bc: RobinBC) -> PhaseOffsets:
    """Offsets matching the shot solution to the boundary conditions.

    For mu > 0 these are arctan(k^2/sqrt(mu))/sqrt(mu); for mu < 0 the
    logarithmic analogue 0.5*log((k^2+nu)/|k^2-nu|) with nu = sqrt(|mu|).
    Raises BranchUndefined when nu equals a coefficient (the exponential
    branch of the decay kernels covers that point instead).
    """
    if mu == 0.0:
        raise ValueError("phase offsets are defined for mu != 0")
    if mu > 0.0:
        s = math.sqrt(mu)
        return PhaseOffsets(math.atan2(bc.k0sq, s) / s, math.atan2(bc.k1sq, s) / s)
    nu = math.sqrt(-mu)
    return PhaseOffsets(_log_offset(nu, bc.k0sq), _log_offset(nu, bc.k1sq))


def decay_logslope(nu: float, kappa: float, x: float) -> float:
    """Scaled logarithmic slope of the decay profile: tanh / 1 / coth branches."""
    if abs(nu - kappa) < BRANCH_TOL:
        return 1.0
    arg = nu * x + _log_offset(nu, kappa)
    if nu > kappa:
        return math.tanh(arg)
    return 1.0 / math.tanh(arg)


def _logslope_dx(nu, kappa, x):
    # d/dx of decay_logslope
    if abs(nu - kappa) < BRANCH_TOL:
        return 0.0
    arg = nu * x + _log_offset(nu, kappa)
    if nu > kappa:
        return nu / math.cosh(arg) ** 2
    return -nu / math.sinh(arg) ** 2


def _strength_exact(mu, zeta, bc):
    k0, k1 = bc.k0sq, bc.k1sq
    if mu == 0.0:
        return -k0 / (1.0 + k0 * zeta) - k1 / (1.0 + k1 * (1.0 - zeta)), True
    if mu > 0.0:
        s = math.sqrt(mu)
        off = phase_offsets(mu, bc)
        a = s * (zeta - off.alpha)
        b = s * (1.0 - off.beta - zeta)
        lim = _HALF_PI - DOMAIN_MARGIN
        if not (-lim < a < lim and -lim < b < lim):
            return math.nan, False
        return s * (math.tan(a) + math.tan(b)), True
    nu = math.sqrt(-mu)
    return -nu * (decay_logslope(nu, k0, zeta) + decay_logslope(nu, k1, 1.0 - zeta)), True


def _check_point(mu, zeta):
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")


def delta_strength(mu: float, zeta: float, bc: RobinBC) -> StrengthPoint:
    """Weight a with first eigenvalue of a*delta_zeta equal to mu.

    For mu > 0 the point may fall outside the domain (the tangent phases must
    stay inside the open half-period); the result then carries
    ``in_domain=False`` and a NaN value.  For mu <= 0 the map is defined
    everywhere on [0, 1].  Inside the band |mu| < 1e-8 the mu=0 formula plus
    one central-difference correction from mu = +-1e-6 replaces the exact
    branches, which lose digits there.  A non-finite mu raises ValueError.
    """
    _check_point(mu, zeta)
    if abs(mu) < ZERO_BAND:
        base, _ = _strength_exact(0.0, zeta, bc)
        up, _ = _strength_exact(1e-6, zeta, bc)
        dn, _ = _strength_exact(-1e-6, zeta, bc)
        return StrengthPoint(mu, zeta, base + mu * (up - dn) / 2e-6, True)
    value, ok = _strength_exact(mu, zeta, bc)
    return StrengthPoint(mu, zeta, value, ok)


def _strength_dzeta_exact(mu, zeta, bc):
    k0, k1 = bc.k0sq, bc.k1sq
    if mu == 0.0:
        return k0**2 / (1.0 + k0 * zeta) ** 2 - k1**2 / (1.0 + k1 * (1.0 - zeta)) ** 2
    if mu > 0.0:
        s = math.sqrt(mu)
        off = phase_offsets(mu, bc)
        a = s * (zeta - off.alpha)
        b = s * (1.0 - off.beta - zeta)
        lim = _HALF_PI - DOMAIN_MARGIN
        if not (-lim < a < lim and -lim < b < lim):
            raise ValueError(f"(mu, zeta) = ({mu}, {zeta}) is outside the domain")
        return mu * (1.0 / math.cos(a) ** 2 - 1.0 / math.cos(b) ** 2)
    nu = math.sqrt(-mu)
    return -nu * (_logslope_dx(nu, k0, zeta) - _logslope_dx(nu, k1, 1.0 - zeta))


def delta_strength_dzeta(mu: float, zeta: float, bc: RobinBC) -> float:
    """Closed-form zeta-derivative of :func:`delta_strength` at an in-domain point."""
    _check_point(mu, zeta)
    if abs(mu) < ZERO_BAND:
        base = _strength_dzeta_exact(0.0, zeta, bc)
        up = _strength_dzeta_exact(1e-6, zeta, bc)
        dn = _strength_dzeta_exact(-1e-6, zeta, bc)
        return base + mu * (up - dn) / 2e-6
    return _strength_dzeta_exact(mu, zeta, bc)

"""Closed forms for the delta strength that pins the first eigenvalue.

``delta_strength(mu, zeta, bc)`` returns the weight a such that a point mass
a*delta_zeta has first eigenvalue mu.  The formula changes with the sign of
mu: a tangent sum above zero, a rational expression at zero, and a
tanh/coth sum below zero.  One dispatch on that sign gives the weight and
its zeta-derivative together, both in closed form.
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


def _decay(nu, kappa, x):
    """decay_logslope and its x-derivative, nu*sech^2 (tanh) or -nu*csch^2 (coth)."""
    if abs(nu - kappa) < BRANCH_TOL:
        return 1.0, 0.0
    arg = nu * x + _log_offset(nu, kappa)
    if nu > kappa:
        g, wave, sign = math.tanh(arg), math.cosh, 1.0
    else:
        g, wave, sign = 1.0 / math.tanh(arg), math.sinh, -1.0
    try:
        return g, sign * nu / wave(arg) ** 2
    except OverflowError:
        # past |arg| ~ 355.6 the square leaves the float range, and sech^2 and
        # csch^2 are 4*exp(-2|arg|) to float precision
        return g, sign * math.exp(math.log(4.0 * nu) - 2.0 * abs(arg))


def decay_logslope(nu: float, kappa: float, x: float) -> float:
    """Scaled logarithmic slope of the decay profile: tanh / 1 / coth branches."""
    return _decay(nu, kappa, x)[0]


def _closed_form(mu, zeta, bc):
    # (F, dF/dzeta) by the formula for the sign of mu; None outside the domain
    k0, k1 = bc.k0sq, bc.k1sq
    if mu == 0.0:
        p, r = 1.0 + k0 * zeta, 1.0 + k1 * (1.0 - zeta)
        return -k0 / p - k1 / r, k0**2 / p**2 - k1**2 / r**2
    if mu > 0.0:
        s = math.sqrt(mu)
        off = phase_offsets(mu, bc)
        a = s * (zeta - off.alpha)
        b = s * (1.0 - off.beta - zeta)
        lim = _HALF_PI - DOMAIN_MARGIN
        if not (-lim < a < lim and -lim < b < lim):
            return None
        return s * (math.tan(a) + math.tan(b)), mu * (1.0 / math.cos(a) ** 2 - 1.0 / math.cos(b) ** 2)
    nu = math.sqrt(-mu)
    g0, d0 = _decay(nu, k0, zeta)
    g1, d1 = _decay(nu, k1, 1.0 - zeta)
    return -nu * (g0 + g1), -nu * (d0 - d1)


def _strength(mu, zeta, bc):
    """(F, dF/dzeta), or None outside the domain.

    In the zero band the mu = 0 values are corrected by the central
    difference of mu = +-1e-6.  Where mu = 1e-6 is outside the domain they
    stand uncorrected, and a positive mu is outside where its own closed form
    is.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    if abs(mu) >= ZERO_BAND:
        return _closed_form(mu, zeta, bc)
    (f0, d0), up, (fd, dd) = (_closed_form(m, zeta, bc) for m in (0.0, 1e-6, -1e-6))
    if up is not None:
        return f0 + mu * (up[0] - fd) / 2e-6, d0 + mu * (up[1] - dd) / 2e-6
    if mu > 0.0 and _closed_form(mu, zeta, bc) is None:
        return None
    # mu = 1e-6 leaves the domain only for a coefficient past ~1e9 at zeta
    # near its end, where the log offset at mu = -1e-6 cancels to ~5 digits:
    # a difference with it is noise of order 1e4 in F, while the correction
    # it would give is of order |mu| there
    return f0, d0


def delta_strength(mu: float, zeta: float, bc: RobinBC) -> StrengthPoint:
    """Weight a with first eigenvalue of a*delta_zeta equal to mu.

    For mu > 0 the point may fall outside the domain (the tangent phases must
    stay inside the open half-period); the result then carries
    ``in_domain=False`` and a NaN value.  For mu <= 0 the map is defined
    everywhere on [0, 1].  Inside the band |mu| < 1e-8 the mu=0 formula plus
    one central-difference correction from mu = +-1e-6 replaces the exact
    branches, which lose digits there; where mu = 1e-6 is outside the domain
    (a coefficient past ~1e9, zeta near its end) the mu=0 value stands alone,
    and a positive mu is outside where its own formula is.  A non-finite mu
    raises ValueError.
    """
    point = _strength(mu, zeta, bc)
    if point is None:
        return StrengthPoint(mu, zeta, math.nan, False)
    return StrengthPoint(mu, zeta, point[0], True)


def delta_strength_dzeta(mu: float, zeta: float, bc: RobinBC) -> float:
    """Closed-form zeta-derivative of :func:`delta_strength`, finite for every finite mu.

    Raises ValueError outside the domain and for a non-finite mu.
    """
    point = _strength(mu, zeta, bc)
    if point is None:
        raise ValueError(f"(mu, zeta) = ({mu}, {zeta}) is outside the domain")
    return point[1]

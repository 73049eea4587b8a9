"""Closed forms for the delta strength that pins the first eigenvalue.

``delta_strength(mu, zeta, bc)`` returns the weight a such that a point mass
a*delta_zeta has first eigenvalue mu, with its zeta-derivative, as one
``StrengthPoint``.  The formula changes with the sign of mu: a tangent sum
above zero, a tanh/coth sum below zero, and a rational expression at zero,
with its first-order term in mu across |mu| < 1e-8.  One dispatch on that
sign gives the weight and its zeta-derivative together, both in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .potential import RobinBC

#: |mu| below this is evaluated from the mu=0 formula plus its first-order term
ZERO_BAND = 1e-8
#: |nu - kappa| below this selects the exponential (middle) branch
BRANCH_TOL = 1e-12
#: margin used for the open domain conditions at positive mu
DOMAIN_MARGIN = 1e-12

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class StrengthPoint:
    """Delta strength at (mu, zeta), its zeta-derivative and the domain flag."""

    mu: float
    zeta: float
    value: float
    dzeta: float
    in_domain: bool


def phase_offsets(mu: float, bc: RobinBC) -> tuple[float, float]:
    """Offsets (alpha, beta) = arctan(k^2/sqrt(mu))/sqrt(mu) at the left and
    right ends, matching the shot solution to the boundary conditions, for
    mu > 0."""
    s = math.sqrt(mu)
    return math.atan2(bc.k0sq, s) / s, math.atan2(bc.k1sq, s) / s


def _decay(nu, kappa, x):
    """Scaled logarithmic slope of the decay profile at x and its x-derivative.

    The slope is 1 where nu = kappa (to BRANCH_TOL), else tanh (nu > kappa)
    or coth (nu < kappa) of nu*x plus the offset 0.5*log((kappa + nu)/|kappa
    - nu|); its derivative is nu*sech^2 or -nu*csch^2 of the same argument.
    """
    if abs(nu - kappa) < BRANCH_TOL:
        return 1.0, 0.0
    arg = nu * x + 0.5 * math.log((kappa + nu) / abs(kappa - nu))
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


def _closed_form(mu, zeta, bc):
    # (F, dF/dzeta) by the formula for the sign of mu; None outside the domain
    k0, k1 = bc.k0sq, bc.k1sq
    if mu == 0.0:
        p, r = 1.0 + k0 * zeta, 1.0 + k1 * (1.0 - zeta)
        return -k0 / p - k1 / r, k0**2 / p**2 - k1**2 / r**2
    if mu > 0.0:
        s = math.sqrt(mu)
        alpha, beta = phase_offsets(mu, bc)
        a = s * (zeta - alpha)
        b = s * (1.0 - beta - zeta)
        lim = _HALF_PI - DOMAIN_MARGIN
        if not (-lim < a < lim and -lim < b < lim):
            return None
        return s * (math.tan(a) + math.tan(b)), mu * (1.0 / math.cos(a) ** 2 - 1.0 / math.cos(b) ** 2)
    nu = math.sqrt(-mu)
    g0, d0 = _decay(nu, k0, zeta)
    g1, d1 = _decay(nu, k1, 1.0 - zeta)
    return -nu * (g0 + g1), -nu * (d0 - d1)


def delta_strength(mu: float, zeta: float, bc: RobinBC) -> StrengthPoint:
    """Weight a with first eigenvalue of a*delta_zeta equal to mu, and da/dzeta.

    For mu > 0 the point may fall outside the domain (the tangent phases must
    stay inside the open half-period); the result then carries
    ``in_domain=False`` and NaN for the value and the derivative.  For
    mu <= 0 the map is defined everywhere on [0, 1], and the derivative is
    finite for every finite mu.  A non-finite mu or a zeta outside [0, 1]
    raises ValueError.

    Inside the band |mu| < 1e-8, where the exact branches lose digits, the
    mu = 0 values plus their first-order terms stand in: with u = y'/y,
    u' = -mu - u^2 and F = u_R - u_L, du/dmu at mu = 0 solves
    v' = -1 - 2*u*v, so dF/dmu = zeta*g(t) + (1 - zeta)*g(s) and its
    zeta-derivative is 2*(s*g(s) - t*g(t)), g(x) = 1 - x + x^2/3, with
    t = k0*zeta/(1 + k0*zeta) and s = k1*(1 - zeta)/(1 + k1*(1 - zeta)).
    A positive mu there is outside the domain only where both its own
    closed form and that of mu = 1e-6 are.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    if abs(mu) >= ZERO_BAND:
        point = _closed_form(mu, zeta, bc)
    elif mu > 0.0 and _closed_form(mu, zeta, bc) is None and _closed_form(1e-6, zeta, bc) is None:
        point = None
    else:
        t = bc.k0sq * zeta / (1.0 + bc.k0sq * zeta)
        s = bc.k1sq * (1.0 - zeta) / (1.0 + bc.k1sq * (1.0 - zeta))
        gl, gr = 1.0 - t + t * t / 3.0, 1.0 - s + s * s / 3.0
        f0, d0 = _closed_form(0.0, zeta, bc)
        point = f0 + mu * (zeta * gl + (1.0 - zeta) * gr), d0 + 2.0 * mu * (s * gr - t * gl)
    if point is None:
        return StrengthPoint(mu, zeta, math.nan, math.nan, False)
    return StrengthPoint(mu, zeta, *point, True)

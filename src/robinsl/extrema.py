"""Exact extrema of the first eigenvalue over unit-mass potential classes.

Over nonnegative potentials of total mass 1 (and their negatives) the first
eigenvalue has a largest and a smallest value, each attained by an explicit
extremal potential: a single plateau for the supremum over the positive
class, endpoint point masses for the negative class, and a single point mass
for both infima.  Every report carries the extremal potential and a
cross-check recomputation through the shooting solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigensolver import _check_tol, _solve_arrays, lambda1_value
from .errors import NoCrossing, PolePoint, RobinSLError
from .potential import DeltaAtom, Potential, RobinBC, Segment

ROOT_TOL = 1e-12
_MU_TOL = 1e-13
_CROSS_TOL = 1e-12

_EDGES0 = [0.0, 1.0]
_VALS0 = [0.0]
_ATOMW0 = [0.0, 0.0]

KINDS = ("M1plus", "M1minus", "m1plus", "m1minus")


@dataclass(frozen=True)
class ExtremumReport:
    """One extremum: its value, the extremal potential, and the branch taken."""

    kind: str
    value: float
    q_star: Potential
    branch: str
    cross_check: float


def _eig0(k0sq, k1sq, tol=_CROSS_TOL):
    """First eigenvalue of the zero potential with raw effective coefficients."""
    return _solve_arrays(_EDGES0, _VALS0, _ATOMW0, k0sq, k1sq, tol)[0]


def cot_secular(x: float) -> float:
    """sqrt(x)*cot(sqrt(x)), continued through 0 into sqrt(|x|)*coth(sqrt(|x|)).

    Raises PolePoint within 1e-12 of the cotangent poles (k*pi)^2, k >= 1.
    """
    if x > 0.0:
        r = math.sqrt(x)
        k = round(r / math.pi)
        if k >= 1 and abs(x - (k * math.pi) ** 2) < 1e-12:
            raise PolePoint(f"x = {x} sits on a cotangent pole")
        return r / math.tan(r)
    if x == 0.0:
        return 1.0
    r = math.sqrt(-x)
    return r / math.tanh(r)


def sup_plus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Supremum over the positive class: plateau potential of height mu.

    mu is the unique root of alpha_mu + beta_mu + 1/mu = 1 (the left side of
    the root equation is strictly decreasing), and the extremal potential
    equals mu on [alpha_mu, 1 - beta_mu] and 0 elsewhere, so its mass is
    exactly mu * (1/mu) = 1.
    """
    _check_tol(tol)
    k0, k1 = bc.k0sq, bc.k1sq

    def w(mu):
        s = math.sqrt(mu)
        return (math.atan2(k0, s) + math.atan2(k1, s)) / s + 1.0 / mu - 1.0

    lo = 0.5  # w(0.5) >= 1 > 0 for any admissible bc
    hi = 2.0
    for _ in range(200):
        if w(hi) < 0.0:
            break
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if w(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    s = math.sqrt(mu)
    alpha = math.atan2(k0, s) / s
    beta = math.atan2(k1, s) / s
    q_star = Potential(segments=(Segment(alpha, 1.0 - beta, mu),))
    return ExtremumReport(
        "M1plus", mu, q_star, "M1plus/plateau", lambda1_value(q_star, bc, _CROSS_TOL)
    )


def sup_minus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Supremum over the negative class: three closed-form branches.

    (a) k0sq + k1sq <= 1: value k0sq + k1sq - 1, extremal potential a
        constant part plus endpoint masses -k0sq*delta_0 - k1sq*delta_1.
    (b) k0sq + k1sq >= 1 and k1sq - k0sq <= 1: zero potential with both
        effective coefficients (k0sq + k1sq - 1)/2, endpoint masses split
        accordingly.
    (c) k1sq - k0sq >= 1: zero potential with coefficients (k0sq, k1sq - 1),
        extremal potential -delta_1.
    Overlapping conditions agree by continuity; the first match wins.
    """
    _check_tol(tol)
    k0, k1 = bc.k0sq, bc.k1sq
    if k0 + k1 <= 1.0:
        value = k0 + k1 - 1.0
        segs = () if k0 + k1 == 1.0 else (Segment(0.0, 1.0, -(1.0 - k0 - k1)),)
        q_star = Potential(segments=segs, atoms=(DeltaAtom(0.0, -k0), DeltaAtom(1.0, -k1)))
        branch = "M1minus/k0sq+k1sq<=1"
    elif k1 - k0 <= 1.0:
        c = 0.5 * (k0 + k1 - 1.0)
        value = _eig0(c, c, tol)
        q_star = Potential(
            atoms=(
                DeltaAtom(0.0, -0.5 * (1.0 + k0 - k1)),
                DeltaAtom(1.0, -0.5 * (1.0 - k0 + k1)),
            )
        )
        branch = "M1minus/k0sq+k1sq>=1,k1sq-k0sq<=1"
    else:
        value = _eig0(k0, k1 - 1.0, tol)
        q_star = Potential(atoms=(DeltaAtom(1.0, -1.0),))
        branch = "M1minus/k1sq-k0sq>=1"
    return ExtremumReport("M1minus", value, q_star, branch, lambda1_value(q_star, bc, _CROSS_TOL))


def inf_plus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Infimum over the positive class: attained by the point mass at x=1.

    Equals the first eigenvalue of the zero potential with the right
    coefficient shifted to k1sq + 1.
    """
    _check_tol(tol)
    value = _eig0(bc.k0sq, bc.k1sq + 1.0, tol)
    q_star = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    return ExtremumReport(
        "m1plus", value, q_star, "m1plus/delta1", lambda1_value(q_star, bc, _CROSS_TOL)
    )


def inf_plus_secular(bc: RobinBC) -> float:
    """Independent root of the transcendental secular equation for inf_plus.

    Solves (lam - k0sq*k1sq - k0sq)/(k0sq + k1sq + 1) = cot_secular(lam) on
    (0, pi^2); used to cross-validate the shooting route.
    """
    k0, k1 = bc.k0sq, bc.k1sq
    denom = k0 + k1 + 1.0

    def f(lam):
        return (lam - k0 * k1 - k0) / denom - cot_secular(lam)

    lo, hi = 0.0, math.pi**2 - 1e-9
    for _ in range(200):
        if hi - lo <= ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def left_half_eigenvalue(zeta: float, bc: RobinBC) -> float:
    """Smallest eigenvalue on [0, zeta] with 2y'(zeta) - y(zeta) = 0 on the right.

    Computed by rescaling [0, zeta] to the unit interval, which multiplies the
    eigenvalue by zeta^2 and the boundary coefficients by zeta.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    # rescaled solve tolerance keeps the unrescaled eigenvalue accurate to
    # _MU_TOL; the floor keeps it above the floating-point spacing at tiny zeta
    tol = max(_MU_TOL * zeta**2, 1e-20)
    return _solve_arrays(_EDGES0, _VALS0, _ATOMW0, zeta * bc.k0sq, -0.5 * zeta, tol)[0] / zeta**2


def right_half_eigenvalue(zeta: float, bc: RobinBC) -> float:
    """Smallest eigenvalue on [zeta, 1] with 2y'(zeta) + y(zeta) = 0 on the left."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")
    length = 1.0 - zeta
    tol = max(_MU_TOL * length**2, 1e-20)
    lam = _solve_arrays(_EDGES0, _VALS0, _ATOMW0, -0.5 * length, length * bc.k1sq, tol)[0]
    return lam / length**2


def _riccati_length(k, lam):
    """Integral of du/(u^2 + lam) over [1/2, k], for k >= 1/2 and lam > -1/4.

    The length over which u = y'/y, which obeys u' = -lam - u^2 on a zero
    potential, falls from k to 1/2.  The difference of two arctangents
    (arctanh for lam < 0) is taken in one call, so that it keeps its relative
    precision near k = 1/2 and lam = 0.
    """
    c = 2.0 * k - 1.0
    if lam > 0.0:
        t = math.sqrt(lam)
        return math.atan(t * c / (k + 2.0 * lam)) / t
    if lam < 0.0:
        s = math.sqrt(-lam)
        return math.atanh(s * c / (k + 2.0 * lam)) / s
    return c / k


def _crossing_estimate(k0sq, k1sq):
    """Closed-form crossing of the half-interval eigenvalue curves.

    With u = y'/y, the left half problem's u falls from k0sq at 0 to 1/2 at
    zeta, and the right one's from -1/2 at zeta to -k1sq at 1.  So at their
    common eigenvalue lam, zeta = I(k0sq, lam) and 1 - zeta = I(k1sq, lam),
    with I = _riccati_length.  I(k0sq) + I(k1sq) - 1 falls from +inf at
    lam = -1/4 to below zero at lam = 16 (each I < pi/8 there); it is bisected
    until the floats run out.  Returns (zeta, slope), or None for
    k1sq < 1/2: zeta = I(k0sq)/(I(k0sq) + I(k1sq)) at that lam, exactly 1/2
    when k0sq = k1sq, and slope ~ |d gap/d zeta| there, the sum over both
    halves of 1/|dI/dlam| by a central difference (inf where that fails).
    """
    if k1sq < 0.5:
        # (an unvalidated RobinBC) the curves cannot cross, as the right half
        # needs lam < -1/4; I(k1sq) has a pole in (-1/4, 0)
        return None

    def excess(lam):
        return _riccati_length(k0sq, lam) + _riccati_length(k1sq, lam) - 1.0

    lo, hi = -0.25 + 1e-16, 16.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    left, right = _riccati_length(k0sq, lo), _riccati_length(k1sq, lo)
    h = 1e-3 * (lo + 0.25)
    slope = 0.0
    for k in (k0sq, k1sq):
        dlen = _riccati_length(k, lo - h) - _riccati_length(k, lo + h)
        slope += 2.0 * h / dlen if dlen > 0.0 else math.inf
    return left / (left + right), slope


def _half_err(length):
    """Error bound of a half-interval eigenvalue on an interval of this length.

    Its solve tolerance, unrescaled (see left_half_eigenvalue); the solve
    returns the middle of a bracket that wide, so this bound has a factor 2
    to spare.
    """
    return max(_MU_TOL * length**2, 1e-20) / length**2


def _certified_window(gap, zeta, m, lo, hi):
    """Window (a, b) around the estimate zeta outside which the bisection's signs are known.

    Every bisection midpoint <= a has a computed gap > 0, and every midpoint
    >= b one <= 0.  The true gap is strictly decreasing, and a computed gap at
    z is within _half_err(z) + _half_err(1 - z) of it.  A midpoint <= a lies
    in [a/2, a] (it halves a bracket that reaches past a), so a computed
    gap(a) above its own error plus the largest error on [a/2, a] fixes the
    sign there; b mirrors this.

    Each end starts m from zeta and moves out eightfold until its evaluated
    gap clears that bound.  An end past lo or hi is clamped and not
    evaluated.
    """
    zeta = min(max(zeta, lo), hi)
    m0 = m
    while True:
        a = zeta - m
        if a <= lo:
            a = lo
            break
        if gap(a) > _half_err(a) + _half_err(0.5 * a) + 2.0 * _half_err(1.0 - a):
            break
        m *= 8.0
    m = m0
    while True:
        b = zeta + m
        if b >= hi:
            b = hi
            break
        if -gap(b) > 2.0 * _half_err(b) + _half_err(1.0 - b) + _half_err(0.5 * (1.0 - b)):
            break
        m *= 8.0
    return a, b


def inf_minus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Infimum over the negative class.

    When the interior criterion holds (k0sq > 1/2, or k0sq = k1sq = 1/2) the
    infimum is attained at an interior point mass -delta_zeta, with zeta the
    crossing of the two half-interval eigenvalue curves (the left one strictly
    decreasing, the right one strictly increasing).  Otherwise it is attained
    at -delta_0, i.e. the zero potential with left coefficient k0sq - 1.

    zeta is the result of bisecting gap = left - right half eigenvalue to
    width tol, computed with a few gap evaluations.  The Riccati form of the
    half problems, u' = -lam - u^2 for u = y'/y, gives the crossing in closed
    form (_crossing_estimate).  A window around that estimate is certified
    by evaluating gap at its ends against E, the error bound of a computed
    gap from the tolerances of its two half solves (_certified_window).  The
    bisection is then replayed and evaluates gap only at the midpoints inside
    the window, so zeta, the value and every printed digit are the plain
    bisection's.  Without an estimate, or when a certifying evaluation
    raises, the window is the whole bracket.
    """
    _check_tol(tol)
    k0, k1 = bc.k0sq, bc.k1sq
    if abs(k0 - 0.5) < 1e-12 and abs(k1 - 0.5) < 1e-12:
        q_star = Potential(atoms=(DeltaAtom(0.5, -1.0),))
        return ExtremumReport(
            "m1minus",
            -0.25,
            q_star,
            "m1minus/interior-any-zeta",
            lambda1_value(q_star, bc, _CROSS_TOL),
        )
    if k0 > 0.5:
        gap = lambda z: left_half_eigenvalue(z, bc) - right_half_eigenvalue(z, bc)
        lo, hi = 1e-6, 1.0 - 1e-6
        g_lo, g_hi = gap(lo), gap(hi)
        while g_lo <= 0.0 and lo > 1e-13:
            lo /= 8.0
            g_lo = gap(lo)
        while g_hi >= 0.0 and 1.0 - hi > 1e-13:
            hi = 1.0 - (1.0 - hi) / 8.0
            g_hi = gap(hi)
        if g_lo <= 0.0 or g_hi >= 0.0:
            raise NoCrossing("half-interval eigenvalue curves do not cross on (0, 1)")
        a, b = lo, hi
        estimate = _crossing_estimate(k0, k1)
        if estimate is not None:
            zeta_est, slope = estimate
            # tol/4 or, where the curves are nearly parallel (both
            # coefficients near 1/2), twice the distance over which the gap
            # changes by its error bound at moderate zeta, 4 * _MU_TOL
            m = max(0.25 * tol, 8.0 * _MU_TOL / slope)
            try:
                a, b = _certified_window(gap, zeta_est, m, lo, hi)
            except RobinSLError:
                # it evaluates zetas the bisection never visits, and a half
                # solve can fail there; the plain bisection decides instead
                pass
        for _ in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if mid <= a or (mid < b and gap(mid) > 0.0):
                lo = mid
            else:
                hi = mid
        zeta = 0.5 * (lo + hi)
        value = left_half_eigenvalue(zeta, bc)
        if value < -(k0**2) - 1e-9:
            raise NoCrossing(f"crossing value {value} below the admissible floor {-(k0**2)}")
        q_star = Potential(atoms=(DeltaAtom(zeta, -1.0),))
        return ExtremumReport(
            "m1minus", value, q_star, "m1minus/interior", lambda1_value(q_star, bc, _CROSS_TOL)
        )
    value = _eig0(k0 - 1.0, k1, tol)
    q_star = Potential(atoms=(DeltaAtom(0.0, -1.0),))
    return ExtremumReport(
        "m1minus", value, q_star, "m1minus/delta0", lambda1_value(q_star, bc, _CROSS_TOL)
    )


def all_extrema(bc: RobinBC, tol: float = ROOT_TOL):
    """The four extremum reports in the fixed order M1plus, M1minus, m1plus, m1minus."""
    return [sup_plus(bc, tol), sup_minus(bc, tol), inf_plus(bc, tol), inf_minus(bc, tol)]

"""Exact extrema of the first eigenvalue over unit-mass potential classes.

Over nonnegative potentials of total mass 1 (and their negatives) the first
eigenvalue has a largest and a smallest value, each attained by an explicit
extremal potential: a single plateau for the supremum over the positive
class, endpoint point masses for the negative class, and a single point mass
for both infima.  Each value is a closed form: the plateau's equation, a Riccati
crossing, or ``_eig0``, the zero potential's first eigenvalue under shifted coefficients,
a bisection of the shooting solver's own predicate in cos, sin and tanh (not the angle form,
whose slope vanishes as a -> -1).  Each report carries a cross-check, an independent shooting
solve of its extremal potential from the value, whose bracket certifies whatever the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigensolver import _check_tol, _solve_arrays
from .fmap import phase_offsets
from .potential import DeltaAtom, Potential, RobinBC, Segment, compile_arrays

ROOT_TOL = 1e-12
_MU_TOL = 1e-13
_CROSS_TOL = 1e-12

KINDS = ("M1plus", "M1minus", "m1plus", "m1minus")


@dataclass(frozen=True)
class ExtremumReport:
    """One extremum: its value, the extremal potential, and the branch taken."""

    kind: str
    value: float
    q_star: Potential
    branch: str
    cross_check: float


def _report(kind, value, q_star, branch, bc):
    """The report, cross-checked by a solve of q_star whose first shot is at value.  Each
    shot moves the bracket by its own predicate, so the bracket certifies whatever the start."""
    cross = _solve_arrays(*compile_arrays(q_star, bc), _CROSS_TOL, value)[0]
    return ExtremumReport(kind, value, q_star, branch, cross)


def _bisect(below_root, lo, hi, tol, steps=200):
    """Halve [lo, hi] about where below_root turns false; returns (lo, hi).

    Stops at hi - lo <= tol, at a midpoint not strictly inside, or after `steps` halvings.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            break
        if below_root(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _below0(a, b, lam):
    """Whether lam < pi^2 lies below the zero potential's first eigenvalue at raw coefficients (a, b):
    the shooting solver's predicate, y(1) > 0 (so zero-free, as lam < pi^2) and y'(1) + b*y(1) > 0
    for y(0) = 1, y'(0) = a; at lam = -s^2 both are divided by cosh s, so they stay finite."""
    if lam > 0.0:
        s = math.sqrt(lam)
        y1 = math.cos(s) + a * math.sin(s) / s
        return y1 > 0.0 and a * math.cos(s) - s * math.sin(s) + b * y1 > 0.0
    if lam < 0.0:
        s = math.sqrt(-lam)
        t = math.tanh(s)
        g = 1.0 + a * t / s
        return g > 0.0 and s * t + a + b * g > 0.0
    return 1.0 + a > 0.0 and a + b * (1.0 + a) > 0.0


def _eig0(k0sq, k1sq, tol=_CROSS_TOL):
    """First eigenvalue of the zero potential at raw coefficients: ``_below0`` bisected to width tol.

    It lies below k0sq + k1sq (the Rayleigh quotient of y = 1) and pi^2.  The predicate's angle form
    atan2(s, a) + s < atan2(s, -b) is not used: its slope in s vanishes as a -> -1, and at
    (1.341025816518489e-11 - 1, 8.104573753224621e124) it put the eigenvalue 4.024e-11 at 7.9e-14.
    """
    hi = min(k0sq + k1sq, math.pi**2)
    lo = min(hi, 0.0) - 1.0
    while not _below0(k0sq, k1sq, lo):
        lo *= 2.0
    lo, hi = _bisect(lambda lam: _below0(k0sq, k1sq, lam), lo, hi, tol)
    return 0.5 * (lo + hi)


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

    lo, hi = 0.5, 2.0  # w(0.5) >= 1 > 0 for any admissible bc
    for _ in range(200):
        if w(hi) < 0.0:
            break
        hi *= 2.0
    lo, hi = _bisect(lambda mu: w(mu) > 0.0, lo, hi, tol)
    mu = 0.5 * (lo + hi)
    alpha, beta = phase_offsets(mu, bc)
    q_star = Potential(segments=(Segment(alpha, 1.0 - beta, mu),))
    return _report("M1plus", mu, q_star, "M1plus/plateau", bc)


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
        c = 0.5 * k0 + 0.5 * k1 - 0.5  # (k0 + k1 - 1)/2 by exact halves, finite for finite k0, k1
        value = _eig0(c, c, tol)
        q_star = Potential(atoms=(DeltaAtom(0.0, -0.5 * (1.0 + k0 - k1)), DeltaAtom(1.0, -0.5 * (1.0 - k0 + k1))))
        branch = "M1minus/k0sq+k1sq>=1,k1sq-k0sq<=1"
    else:
        value = _eig0(k0, k1 - 1.0, tol)
        q_star = Potential(atoms=(DeltaAtom(1.0, -1.0),))
        branch = "M1minus/k1sq-k0sq>=1"
    return _report("M1minus", value, q_star, branch, bc)


def inf_plus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Infimum over the positive class: attained by the point mass at x=1.

    Equals the first eigenvalue of the zero potential with the right
    coefficient shifted to k1sq + 1.
    """
    _check_tol(tol)
    value = _eig0(bc.k0sq, bc.k1sq + 1.0, tol)
    q_star = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    return _report("m1plus", value, q_star, "m1plus/delta1", bc)


def left_half_eigenvalue(zeta: float, bc: RobinBC) -> float:
    """Smallest eigenvalue on [0, zeta] with 2y'(zeta) - y(zeta) = 0 on the right.

    Computed by rescaling [0, zeta] to the unit interval, which multiplies the
    eigenvalue by zeta^2 and the boundary coefficients by zeta.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError("zeta must lie in (0, 1]")
    # rescaled tolerance keeps the unrescaled eigenvalue accurate to _MU_TOL;
    # the floor caps the bisection's halvings at tiny zeta
    tol = max(_MU_TOL * zeta**2, 1e-20)
    return _eig0(zeta * bc.k0sq, -0.5 * zeta, tol) / zeta**2


def right_half_eigenvalue(zeta: float, bc: RobinBC) -> float:
    """Smallest eigenvalue on [zeta, 1] with 2y'(zeta) + y(zeta) = 0 on the left."""
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")
    length = 1.0 - zeta
    tol = max(_MU_TOL * length**2, 1e-20)
    return _eig0(-0.5 * length, length * bc.k1sq, tol) / length**2


def _riccati_length(k, lam):
    """Integral of du/(u^2 + lam) over [1/2, k], for k >= 1/2 and lam > -1/4.

    The length over which u = y'/y, which obeys u' = -lam - u^2 on a zero
    potential, falls from k to 1/2.  The difference of two arctangents
    (arctanh for lam < 0) is taken in one call, so that it keeps its relative
    precision near k = 1/2 and lam = 0.  Its argument is t*(2k - 1)/(k + 2 lam),
    with numerator and denominator both divided by 16: a power of two, so the
    ratio keeps its bits, and t*c stays finite up to the float maximum k for
    the lam <= 16 the crossing bisects over.
    """
    c = 0.125 * k - 0.0625
    d = 0.0625 * k + 0.125 * lam
    if lam > 0.0:
        t = math.sqrt(lam)
        return math.atan(t * c / d) / t
    if lam < 0.0:
        s = math.sqrt(-lam)
        return math.atanh(s * c / d) / s
    return c / d


def _crossing_estimate(k0sq, k1sq):
    """Closed-form crossing of the half-interval eigenvalue curves.

    With u = y'/y, the left half problem's u falls from k0sq at 0 to 1/2 at
    zeta, and the right one's from -1/2 at zeta to -k1sq at 1.  So at their
    common eigenvalue lam, zeta = I(k0sq, lam) and 1 - zeta = I(k1sq, lam),
    with I = _riccati_length.  I(k0sq) + I(k1sq) - 1 falls from +inf at
    lam = -1/4 to below zero at lam = 16 (each I < pi/8 there); it is bisected
    until the floats run out.  For 1/2 < k0sq <= k1sq each I is positive, so
    the returned (zeta, lam), zeta = I(k0sq)/(I(k0sq) + I(k1sq)), has
    0 < zeta < 1, exactly 1/2 when k0sq = k1sq, and lam > -1/4.
    """

    def below_root(lam):
        return _riccati_length(k0sq, lam) + _riccati_length(k1sq, lam) - 1.0 > 0.0

    lo, _ = _bisect(below_root, -0.25 + 1e-16, 16.0, 0.0, steps=100)
    left, right = _riccati_length(k0sq, lo), _riccati_length(k1sq, lo)
    return left / (left + right), lo


def inf_minus(bc: RobinBC, tol: float = ROOT_TOL) -> ExtremumReport:
    """Infimum over the negative class.

    When the interior criterion holds (k0sq > 1/2, or k0sq = k1sq = 1/2) the
    infimum is attained at an interior point mass -delta_zeta, with zeta the
    crossing of the two half-interval eigenvalue curves (the left one strictly
    decreasing, the right one strictly increasing) and the value their common
    eigenvalue there.  The Riccati form of the half problems, u' = -lam - u^2
    for u = y'/y, gives both in closed form to float precision
    (_crossing_estimate), so tol plays no part in that branch.  Otherwise the
    infimum is attained at -delta_0, i.e. the zero potential with left
    coefficient k0sq - 1.
    """
    _check_tol(tol)
    k0, k1 = bc.k0sq, bc.k1sq
    if abs(k0 - 0.5) < 1e-12 and abs(k1 - 0.5) < 1e-12:
        q_star = Potential(atoms=(DeltaAtom(0.5, -1.0),))
        return _report("m1minus", -0.25, q_star, "m1minus/interior-any-zeta", bc)
    if k0 > 0.5:
        zeta, value = _crossing_estimate(k0, k1)
        q_star = Potential(atoms=(DeltaAtom(zeta, -1.0),))
        return _report("m1minus", value, q_star, "m1minus/interior", bc)
    value = _eig0(k0 - 1.0, k1, tol)
    q_star = Potential(atoms=(DeltaAtom(0.0, -1.0),))
    return _report("m1minus", value, q_star, "m1minus/delta0", bc)


def all_extrema(bc: RobinBC, tol: float = ROOT_TOL):
    """The four reports in KINDS order; the makers are module globals read each call, so a tracer's wrappers run."""
    return [make(bc, tol) for make in (sup_plus, sup_minus, inf_plus, inf_minus)]

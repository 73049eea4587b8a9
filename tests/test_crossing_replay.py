"""inf_minus's interior crossing against mpmath.

inf_minus takes zeta and the value from the closed-form Riccati crossing of
the half-interval eigenvalue curves, without a half-interval solve.  An
mpmath solve of the crossing equation is the accuracy oracle; the cross-check
solve of lambda1 at the extremal atom must meet the value.
"""

import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robinsl.extrema as ex
from robinsl import RobinBC, inf_minus

TOLS = (1e-13, 1e-12, 1e-10, 1e-3)


def _edge_points():
    # perfbench's extrema_grid `edge` sweep: k0sq - 1/2 from 1e-5 to 1e-2
    pts = []
    for j in range(12):
        k0 = 0.5 + 10.0 ** (-5.0 + 3.0 * (j + 0.5) / 12)
        pts.append((k0, k0 + 1.0 + 3.0 * random.Random(f"extrema_grid:edge:{j}").random()))
    return pts


def _seeded_pairs(n=60):
    rng = random.Random(20261018)
    pairs = []
    for _ in range(n):
        k0 = 0.5 + 10.0 ** rng.uniform(-6.0, math.log10(4.0))
        pairs.append((k0, k0 + 10.0 ** rng.uniform(-9.0, 1.5)))
    return pairs


PAIRS = (
    _edge_points()
    + [(1.0, 1.0), (1.0, 4.0)]
    + _seeded_pairs()
    + [(0.5 + 1e-9, 0.5 + 1e-9), (0.5 + 2e-12, 0.5 + 2e-12), (3.0, 100.0)]
)
# the former plain zeta bisection put the atom of the first below the
# admissible floor, missed the cross-check of the second by 2.6e-5, and could
# not solve the right half problem of the third at zeta = 1 - 1e-6
EDGE_PAIRS = [(0.50000000001, 2.0), (0.5000001, 2.0), (3.0, 100.0)]


def test_interior_branch_solves_no_half_problem(monkeypatch):
    # every half-interval solve goes through _eig0; the interior branch takes
    # zeta and the value from the crossing alone, and the value meets the
    # cross-check solve of lambda1 at -delta_zeta
    calls = [0]
    real = ex._eig0

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(ex, "_eig0", counted)
    for k0, k1 in PAIRS:
        for tol in TOLS:
            rep = inf_minus(RobinBC(k0, k1), tol)
            assert rep.branch == "m1minus/interior", (k0, k1, tol)
            assert abs(rep.value - rep.cross_check) <= 1e-12, (k0, k1, tol)
    assert calls[0] == 0


def _mp_length(k, lam):
    """Integral of du/(u^2 + lam) over [1/2, k], as a difference of antiderivatives."""
    if lam > 0:
        t = mpmath.sqrt(lam)
        return (mpmath.atan(k / t) - mpmath.atan(1 / (2 * t))) / t
    if lam < 0:
        s = mpmath.sqrt(-lam)
        half = mpmath.mpf(1) / 2
        return (mpmath.log((k - s) / (k + s)) - mpmath.log((half - s) / (half + s))) / (2 * s)
    return 2 - 1 / k


def _mp_crossing(k0, k1, lam, b):
    """zeta of the half-curve crossing at 40 digits, or None unless the crossing lies within b of lam.

    The lengths fall as lam grows, so the crossing lies within b of lam
    exactly when their sum exceeds 1 at lam - b and falls short at lam + b;
    a bracketing solve inside that interval then needs only a few lengths.
    """
    with mpmath.workdps(40):
        k0, k1 = mpmath.mpf(k0), mpmath.mpf(k1)

        def excess(x):
            return _mp_length(k0, x) + _mp_length(k1, x) - 1

        lo = max(mpmath.mpf(lam) - b, mpmath.mpf(-0.25) + mpmath.mpf(10) ** -30)
        hi = mpmath.mpf(lam) + b
        if not excess(lo) > 0 > excess(hi):
            return None
        root = mpmath.findroot(excess, (lo, hi), solver="anderson")
        left = _mp_length(k0, root)
        return float(left / (left + _mp_length(k1, root)))


def test_crossing_matches_mpmath():
    for k0, k1 in PAIRS + EDGE_PAIRS:
        rep = inf_minus(RobinBC(k0, k1), 1e-10)
        zeta = _mp_crossing(k0, k1, rep.value, 1e-13)
        assert zeta is not None, (k0, k1)
        assert abs(rep.q_star.atoms[0].position - zeta) <= 1e-12 * zeta, (k0, k1)


def test_edge_points_meet_their_cross_check():
    # perfbench's extrema_grid `edge` sweep at the CLI's default tol; the
    # former plain bisection missed by up to 2e-6 here
    for k0, k1 in _edge_points():
        rep = inf_minus(RobinBC(k0, k1), 1e-10)
        assert abs(rep.value - rep.cross_check) <= 1e-10, (k0, k1)


def test_near_flat_symmetric_pair_puts_the_atom_at_half():
    # the half curves are parallel to within the half solves' tolerance over
    # ~0.1 of zeta here; the former plain bisection put the atom at 0.49896...
    rep = inf_minus(RobinBC(0.5 + 2e-12, 0.5 + 2e-12), 1e-10)
    assert rep.q_star.atoms[0].position == 0.5


_ABOVE_HALF = st.floats(min_value=0.5, max_value=1e10, exclude_min=True)


@given(_ABOVE_HALF, _ABOVE_HALF)
@example(math.nextafter(0.5, 1.0), math.nextafter(0.5, 1.0))
@example(math.nextafter(0.5, 1.0), 1e10)
@example(1e10, 1e10)
@settings(max_examples=300, deadline=None)
def test_crossing_lies_inside_for_every_admissible_pair(a, b):
    # for 1/2 < k0sq <= k1sq both half lengths are positive, so the crossing
    # is strictly inside (0, 1), and the value is above -1/4
    k0, k1 = min(a, b), max(a, b)
    zeta, value = ex._crossing_estimate(k0, k1)
    assert 0.0 < zeta < 1.0, (k0, k1)
    assert value >= -0.25, (k0, k1)


def _quad(k, lam):
    with mpmath.workdps(30):
        return mpmath.quad(lambda u: 1 / (u * u + mpmath.mpf(lam)), [mpmath.mpf(0.5), mpmath.mpf(k)])


@pytest.mark.parametrize("lam", [-0.2, -0.05, -1e-12, 0.0, 1e-12, 0.3, 5.0])
@pytest.mark.parametrize("k", [0.500001, 0.6, 1.0, 2.5, 40.0])
def test_riccati_length_matches_quadrature(k, lam):
    want = _quad(k, lam)
    assert abs(ex._riccati_length(k, lam) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("k", [0.5 + 1e-9, 0.50001, 0.75, 1.0, 3.0, 100.0])
def test_crossing_estimate_symmetric(k):
    assert abs(ex._crossing_estimate(k, k)[0] - 0.5) <= 1e-15

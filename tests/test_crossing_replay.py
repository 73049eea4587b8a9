"""inf_minus's interior crossing against the plain zeta bisection and mpmath.

inf_minus takes zeta and the value from the closed-form Riccati crossing of
the half-interval eigenvalue curves, without a half-interval solve.
``_plain_inf_minus``, a bisection of the half-interval gap, is kept here as a
reference; it evaluates the gap through the module globals
``left_half_eigenvalue`` and ``right_half_eigenvalue``.  An mpmath solve of
the crossing equation is the accuracy oracle.
"""

import math
import random

import mpmath
import pytest

import robinsl.extrema as ex
from robinsl import DeltaAtom, NoCrossing, Potential, RobinBC, inf_minus, lambda1_value

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
# the plain bisection put the atom of the first below the admissible floor,
# missed the cross-check of the second by 2.6e-5, and could not solve the
# right half problem of the third at zeta = 1 - 1e-6
EDGE_PAIRS = [(0.50000000001, 2.0), (0.5000001, 2.0), (3.0, 100.0)]


def _plain_inf_minus(bc, tol):
    """The interior branch of inf_minus as a plain bisection on zeta."""
    k0 = bc.k0sq

    def gap(z):
        return ex.left_half_eigenvalue(z, bc) - ex.right_half_eigenvalue(z, bc)

    lo, hi = 1e-6, 1.0 - 1e-6
    g_lo, g_hi = gap(lo), gap(hi)
    while g_lo <= 0.0 and lo > 1e-13:
        lo /= 8.0
        g_lo = gap(lo)
    while g_hi >= 0.0 and 1.0 - hi > 1e-13:
        hi = 1.0 - (1.0 - hi) / 8.0
        g_hi = gap(hi)
    if g_lo <= 0.0 or g_hi >= 0.0:
        raise ex.NoCrossing("half-interval eigenvalue curves do not cross on (0, 1)")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    zeta = 0.5 * (lo + hi)
    value = ex.left_half_eigenvalue(zeta, bc)
    if value < -(k0**2) - 1e-9:
        raise ex.NoCrossing(f"crossing value {value} below the admissible floor {-(k0**2)}")
    q_star = Potential(atoms=(DeltaAtom(zeta, -1.0),))
    return value, lambda1_value(q_star, bc, ex._CROSS_TOL), zeta, "m1minus/interior"


@pytest.fixture
def gap_calls(monkeypatch):
    """Counts gap evaluations: each one makes exactly one right half solve."""
    calls = [0]
    real = ex.right_half_eigenvalue

    def counted(zeta, bc):
        calls[0] += 1
        return real(zeta, bc)

    monkeypatch.setattr(ex, "right_half_eigenvalue", counted)
    return calls


def test_replay_matches_plain_bisection(gap_calls):
    # where the plain bisection's value differs from inf_minus's by more than
    # tol, it misses its own cross-check by as much: the zeta it bisects to
    # tol moves the value by the slope of the half curves times that error
    plain = calls = 0
    for k0, k1 in PAIRS:
        bc = RobinBC(k0, k1)
        for tol in TOLS:
            gap_calls[0] = 0
            want = _plain_inf_minus(bc, tol)
            plain += gap_calls[0]
            gap_calls[0] = 0
            rep = inf_minus(bc, tol)
            assert gap_calls[0] == 0
            calls += 1
            assert rep.branch == want[3]
            assert abs(rep.value - want[0]) <= tol + abs(want[0] - want[1]) + 1e-12, (k0, k1, tol)
            assert abs(rep.value - rep.cross_check) <= 1e-12, (k0, k1, tol)
    print(f"gap evaluations per call: plain {plain / calls:.1f}, inf_minus 0")


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


def _mp_crossing(k0, k1):
    """(zeta, lam) of the half-curve crossing, bisected at 40 digits."""
    with mpmath.workdps(40):
        k0, k1 = mpmath.mpf(k0), mpmath.mpf(k1)
        lo, hi = mpmath.mpf(-0.25) + mpmath.mpf(10) ** -30, mpmath.mpf(16)
        for _ in range(160):
            mid = (lo + hi) / 2
            if _mp_length(k0, mid) + _mp_length(k1, mid) > 1:
                lo = mid
            else:
                hi = mid
        left = _mp_length(k0, lo)
        return float(left / (left + _mp_length(k1, lo))), float(lo)


def test_crossing_matches_mpmath():
    for k0, k1 in PAIRS + EDGE_PAIRS:
        zeta, lam = _mp_crossing(k0, k1)
        rep = inf_minus(RobinBC(k0, k1), 1e-10)
        assert abs(rep.value - lam) <= 1e-13, (k0, k1)
        assert abs(rep.q_star.atoms[0].position - zeta) <= 1e-12 * zeta, (k0, k1)


def test_edge_points_meet_their_cross_check():
    # perfbench's extrema_grid `edge` sweep at the CLI's default tol; the
    # plain bisection missed by up to 2e-6 here
    for k0, k1 in _edge_points():
        rep = inf_minus(RobinBC(k0, k1), 1e-10)
        assert abs(rep.value - rep.cross_check) <= 1e-10, (k0, k1)


def test_near_flat_symmetric_pair_puts_the_atom_at_half():
    # the half curves are parallel to within the half solves' tolerance over
    # ~0.1 of zeta here; the plain bisection put the atom at 0.49896...
    rep = inf_minus(RobinBC(0.5 + 2e-12, 0.5 + 2e-12), 1e-10)
    assert rep.q_star.atoms[0].position == 0.5


@pytest.mark.parametrize("k1", [0.25, 0.5])
def test_unvalidated_coefficients_have_no_crossing(k1):
    with pytest.raises(NoCrossing):
        inf_minus(RobinBC(0.75, k1, validate=False))


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


def test_crossing_estimate_near_solved_zeta():
    # BC_GRID6's pairs with k0sq > 1/2: (1, 1) and (1, 4)
    for k0, k1 in ((1.0, 1.0), (1.0, 4.0)):
        zeta = _plain_inf_minus(RobinBC(k0, k1), ex.ROOT_TOL)[2]
        assert abs(ex._crossing_estimate(k0, k1)[0] - zeta) <= ex.ROOT_TOL

"""inf_minus's interior root-find against a replay of the plain zeta bisection.

inf_minus evaluates the half-interval gap only inside a window certified
around the closed-form Riccati crossing, and must return exactly what the
plain bisection over the whole bracket returns.  ``_plain_inf_minus`` is that
bisection, kept here as the oracle; both evaluate the gap through the module
globals ``left_half_eigenvalue`` and ``right_half_eigenvalue``.
"""

import math
import random

import mpmath
import pytest

import robinsl.extrema as ex
from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    RobinSLError,
    ToleranceNotReached,
    inf_minus,
    lambda1_value,
)

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


def _outcome(fn, bc, tol):
    """(value, cross_check, zeta) as hex strings and the branch, or the error type."""
    try:
        res = fn(bc, tol)
    except RobinSLError as exc:
        return type(exc).__name__
    if isinstance(res, ex.ExtremumReport):
        res = (res.value, res.cross_check, res.q_star.atoms[0].position, res.branch)
    return tuple(x.hex() for x in res[:3]) + (res[3],)


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
    plain = mine = calls = 0
    errors = set()
    for k0, k1 in PAIRS:
        bc = RobinBC(k0, k1)
        for tol in TOLS:
            gap_calls[0] = 0
            want = _outcome(_plain_inf_minus, bc, tol)
            plain += gap_calls[0]
            gap_calls[0] = 0
            assert _outcome(inf_minus, bc, tol) == want, (k0, k1, tol)
            mine += gap_calls[0]
            calls += 1
            if isinstance(want, str):
                errors.add(want)
    print(f"gap evaluations per call: plain {plain / calls:.1f}, replay {mine / calls:.1f}")
    # the known half-solve failure at (3, 100) must come out of both the same way
    assert errors == {"ToleranceNotReached"}
    # two endpoint gaps, two certifying ones and ~1 in the window at most
    # pairs; plain 36-42 below tol 1e-3.  Pairs with both coefficients near
    # 1/2 have nearly parallel curves, and every midpoint where the computed
    # gap is within its error bound must be evaluated: ~2.9 per call on this
    # set, so no window gets the mean below ~6.9
    assert mine / calls <= 8.0


@pytest.mark.parametrize("off", [1e-3, -1e-3, 0.3, -0.3, None])
def test_certified_window_corrects_a_wrong_estimate(monkeypatch, gap_calls, off):
    # _crossing_estimate is replaced by the solved crossing moved by `off`
    # (None: no estimate); the window must widen until it is sound
    cases = []
    for k0, k1 in PAIRS[::4]:
        bc = RobinBC(k0, k1)
        gap_calls[0] = 0
        cases.append((bc, _outcome(_plain_inf_minus, bc, 1e-10), gap_calls[0]))
    zetas = {(bc.k0sq, bc.k1sq): float.fromhex(w[2]) for bc, w, _ in cases if not isinstance(w, str)}

    real = ex._crossing_estimate

    def wrong(k0sq, k1sq):
        zeta = zetas.get((k0sq, k1sq))
        return None if off is None or zeta is None else (zeta + off, real(k0sq, k1sq)[1])

    monkeypatch.setattr(ex, "_crossing_estimate", wrong)
    for bc, want, plain_calls in cases:
        gap_calls[0] = 0
        assert _outcome(inf_minus, bc, 1e-10) == want, (bc, off)
        if off is None:
            assert gap_calls[0] == plain_calls


def test_certified_window_from_tol_margin(monkeypatch):
    # without the slope the window starts tol/4 wide; near k0sq = k1sq = 1/2
    # the computed gap there is noise, and only its error bound, not its sign,
    # tells where the bisection goes
    real = ex._crossing_estimate
    monkeypatch.setattr(ex, "_crossing_estimate", lambda k0sq, k1sq: (real(k0sq, k1sq)[0], math.inf))
    for k0, k1 in PAIRS[::3] + [(0.5 + 1e-9, 0.5 + 1e-9)]:
        bc = RobinBC(k0, k1)
        for tol in (1e-12, 1e-10):
            assert _outcome(inf_minus, bc, tol) == _outcome(_plain_inf_minus, bc, tol), (k0, k1, tol)


@pytest.mark.parametrize("failing_eval", [1, 2])
def test_failed_certification_falls_back_to_plain_bisection(monkeypatch, failing_eval):
    # a half solve that raises while the window is certified must leave the
    # decision to the plain bisection, not end the call
    real = ex._certified_window

    def failing_window(gap, zeta, m, lo, hi):
        count = [0]

        def flaky(z):
            count[0] += 1
            if count[0] == failing_eval:
                raise ToleranceNotReached("injected")
            return gap(z)

        return real(flaky, zeta, m, lo, hi)

    monkeypatch.setattr(ex, "_certified_window", failing_window)
    for k0, k1 in PAIRS[::4]:
        bc = RobinBC(k0, k1)
        assert _outcome(inf_minus, bc, 1e-10) == _outcome(_plain_inf_minus, bc, 1e-10), (k0, k1)


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
        zeta = inf_minus(RobinBC(k0, k1)).q_star.atoms[0].position
        assert abs(ex._crossing_estimate(k0, k1)[0] - zeta) <= ex.ROOT_TOL

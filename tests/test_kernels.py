import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinsl import inf_minus, lambda1, lambda1_value, sup_plus, RobinBC, Potential, DeltaAtom, Segment
import robinsl._kernels as K
from robinsl._kernels import lambda1_kernel, propagate_step, shoot_kernel
from robinsl.potential import compile_arrays

_PROBE = r"""
import json
import robinsl as rs
q = rs.Potential(segments=(rs.Segment(0.1, 0.6, 3.0),), atoms=(rs.DeltaAtom(0.7, -1.5),))
out = {
    "lam": rs.lambda1_value(q, rs.RobinBC(0.25, 0.5), 1e-12),
    "sup_plus": rs.sup_plus(rs.RobinBC(1.0, 1.0)).value,
    "inf_minus": rs.inf_minus(rs.RobinBC(1.0, 1.0)).value,
}
print(json.dumps(out))
"""


def test_fresh_interpreter_imports_silently_and_matches(child_env):
    # -W error turns any warning, the import's included, into a failure; the
    # child runs the one kernel path this process runs, so its floats are these
    res = subprocess.run([sys.executable, "-W", "error", "-c", _PROBE], env=child_env, capture_output=True, text=True)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    q = Potential(segments=(Segment(0.1, 0.6, 3.0),), atoms=(DeltaAtom(0.7, -1.5),))
    assert json.loads(res.stdout) == {
        "lam": lambda1_value(q, RobinBC(0.25, 0.5), 1e-12),
        "sup_plus": sup_plus(RobinBC(1.0, 1.0)).value,
        "inf_minus": inf_minus(RobinBC(1.0, 1.0)).value,
    }


def test_propagate_step_scaled_hyperbolic_branch():
    # for sh > 350 the exp(sh) factor is pulled out and reported as lnscale
    y1, yp1, nz, lns = propagate_step(1.0, 0.0, -1.0e6, 1.0)
    s = 1000.0
    assert lns == s
    assert y1 == pytest.approx(0.5, rel=1e-12)
    assert yp1 == pytest.approx(0.5 * s, rel=1e-12)
    assert nz == 0
    assert math.isfinite(y1) and math.isfinite(yp1)


def test_shoot_kernel_extreme_lambda_stays_finite():
    import numpy as np

    edges = np.array([0.0, 0.5, 1.0])
    vals = np.array([1.0e6, -1.0e6])
    atomw = np.zeros(3)
    res, zc, _, _, ok = shoot_kernel(edges, vals, atomw, 0.5, 0.5, -1.0e6)
    assert ok
    assert math.isfinite(res)


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


def test_start_state_is_exact():
    # (1, k0sq) scaled by a power of two, with |y'| <= 1: scaling back by
    # that power gives (1, k0sq) to the bit, a signed zero included, from
    # the subnormals to the largest float
    edge = [0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 5e-324, 1e-300, 1.7976931348623157e308]
    mags = 10.0 ** np.random.default_rng(37).uniform(-300.0, math.log10(1.7e308), 500)
    for k0sq in [*edge, *mags.tolist()]:
        for k in (k0sq, -k0sq):
            y, yp = K.start_state(k)
            m, e = math.frexp(y)
            assert m == 0.5 and y <= 1.0 and abs(yp) <= 1.0, k
            assert _bits(math.ldexp(y, 1 - e), math.ldexp(yp, 1 - e)) == _bits(1.0, k), k


@st.composite
def _tables(draw):
    """Scalar cell tables of 1 to 6 cells, with interior atoms."""
    cuts = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=5, unique=True))
    edges = [0.0, *sorted(cuts), 1.0]
    vals = draw(st.lists(st.floats(-1e4, 1e4), min_size=len(edges) - 1, max_size=len(edges) - 1))
    atoms = draw(st.lists(st.floats(-50.0, 50.0), min_size=len(edges) - 2, max_size=len(edges) - 2))
    return edges, vals, [0.0, *atoms, 0.0]


# the largest k0sq whose square is finite, 2**512 less an ulp: past it the
# unscaled first cell overflows.  From 2**511 on, the scaled y*y = 2**(-2e)
# is subnormal, so the band between is drawn too
_BAND = math.nextafter(2.0**512, 0.0)
_K0SQ = st.one_of(
    st.floats(-1e150, 1e150),
    st.floats(2.0**511, _BAND),
    st.floats(-_BAND, -(2.0**511)),
    st.sampled_from([1e150, -1e150, 2.0**498, 2.0**511, _BAND, 1e10, -3.0, 1.5]),
)


def _finite(out):
    return out[-1] is True and all(map(math.isfinite, out[:-1]))


@settings(max_examples=150, deadline=None)
@given(tables=_tables(), k0sq=_K0SQ, k1sq=st.floats(-1e150, 1e150), lam=st.floats(-1e4, 1e4), start=st.floats(-10.0, 1e3))
def test_scaled_start_keeps_the_bits(tables, k0sq, k1sq, lam, start):
    # wherever every shot from the unscaled start (1, k0sq) is ok and
    # finite, a shot and a solve from start_state return its tuples to the
    # bit; past |k0sq| ~ 1e150 some of its shots overflow on these tables
    shot = shoot_kernel(*tables, k0sq, k1sq, lam)
    solve = lambda1_kernel(*tables, k0sq, k1sq, 1e-10, start)
    real, finite = K.shoot_kernel, []

    def unscaled(*args):
        out = real(*args)
        finite.append(_finite(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "start_state", lambda k: (1.0, k))
        mp.setattr(K, "shoot_kernel", unscaled)
        if repr(K.shoot_kernel(*tables, k0sq, k1sq, lam)) != repr(shot):
            assert not finite[0]
        finite.clear()
        if repr(lambda1_kernel(*tables, k0sq, k1sq, 1e-10, start)) != repr(solve):
            assert not all(finite)


def test_dirichlet_end_solves_by_newton(monkeypatch):
    # past k0sq ~ 1.34e154 the unscaled start squared y' = k0sq to inf in the
    # first cell's integral of y^2, so every slope was inf and the solve
    # bisected: 56 shots at 1.4e154 and 66 at 1e300.  From start_state it
    # takes the shots and bits it takes at 1.3e154
    q = Potential(segments=(Segment(0.2, 0.6, 2.5),))
    real, shots = K.shoot_kernel, []

    def counted(*args):
        shots.append(args[-1])
        return real(*args)

    monkeypatch.setattr(K, "shoot_kernel", counted)
    want = lambda1_kernel(*compile_arrays(q, RobinBC(1.3e154, 1.3e154)), 1e-10, 10.5)
    assert want[2] == K.STATUS_OK and len(shots) <= 6, (want, shots)
    for k in (1.4e154, 1e300):
        shots.clear()
        got = lambda1_kernel(*compile_arrays(q, RobinBC(k, k)), 1e-10, 10.5)
        assert len(shots) <= 6 and _bits(*got) == _bits(*want), (k, got, shots)


def test_zero_count_endpoint_zero_not_counted():
    # cos(pi x / 2) vanishes exactly at the cell end, not inside it
    y1, yp1, nz, _ = propagate_step(1.0, 0.0, (math.pi / 2.0) ** 2, 1.0)
    assert abs(y1) < 1e-12
    assert nz == 0


ZERO_Q = (np.array([0.0, 1.0]), np.zeros(1), np.zeros(2))


def _mismatch(k0sq, k1sq, lam):
    _, zc, f, _, ok = shoot_kernel(*ZERO_Q, k0sq, k1sq, lam)
    assert ok
    return zc, f


def test_mismatch_continuous_where_a_zero_enters_through_x1():
    # at k0sq = 0 the shot is cos(sqrt(lam) x), which vanishes at x = 1 for
    # lam = pi^2/4; just above, the zero is interior and counted
    lam0 = math.pi**2 / 4.0
    lams = np.linspace(lam0 - 1e-3, lam0 + 1e-3, 2001)
    zcs, fs = zip(*(_mismatch(0.0, 0.5, float(lam)) for lam in lams))
    assert zcs[0] == 0 and zcs[-1] == 1
    steps = np.diff(fs)
    # dF/dlam is about 0.2 here: no step may hide a jump of pi
    assert np.all(steps > 0.0) and steps.max() < 1e-6
    # ulp by ulp across the crossing: the count flips, the mismatch does not jump
    ulps = lam0 + np.arange(-16, 17) * np.spacing(lam0)
    zcs, fs = zip(*(_mismatch(0.0, 0.5, float(lam)) for lam in ulps))
    assert set(zcs) == {0, 1}
    assert np.all(np.diff(fs) >= 0.0) and fs[-1] - fs[0] < 1e-14


def test_mismatch_increasing_over_several_eigenvalues():
    for k0sq, k1sq in ((0.0, 0.0), (0.25, 0.5), (1.0, 4.0), (-0.5, 0.5)):
        lams = np.linspace(-5.0, 120.0, 4001)
        fs = [_mismatch(k0sq, k1sq, float(lam))[1] for lam in lams]
        assert np.all(np.diff(fs) > 0.0)


def test_mismatch_zero_at_closed_form_eigenvalues():
    # zero potential, (k0sq, k1sq) = (0, 0): lam1 = 0 with the constant eigenfunction
    assert _mismatch(0.0, 0.0, 0.0) == (0, 0.0)
    lam, _, status = lambda1_kernel(*ZERO_Q, 0.0, 0.0, 1e-12)
    assert status == 0 and abs(lam) <= 1e-12
    # inf_plus is the zero potential with k1sq shifted by the unit mass at x = 1;
    # its eigenvalues: 30-digit mpmath roots of the secular equation, rounded
    for k0sq, k1sq, lam in (
        (0.0, 0.0, 0.740173884394967),
        (0.25, 0.5, 1.295072506504377),
        (1.0, 1.0, 2.2783195886486105),
        (1.0, 4.0, 3.0705363059780106),
    ):
        zc, f = _mismatch(k0sq, k1sq + 1.0, lam)
        assert zc == 0 and abs(f) < 1e-11
        assert _mismatch(k0sq, k1sq + 1.0, lam - 1e-9)[1] < 0.0 < _mismatch(k0sq, k1sq + 1.0, lam + 1e-9)[1]


def _mp_angle(edges, vals, atomw, k0sq, lam):
    """The Prüfer angle atan2(y(1), y'(1)) of the shot at lam, in mpmath; continuous in lam away from y(1) = 0."""
    y, yp = mpmath.mpf(1), mpmath.mpf(k0sq)
    for i in range(len(vals)):
        if i > 0 and atomw[i]:
            yp += atomw[i] * y
        h, w = mpmath.mpf(edges[i + 1]) - edges[i], lam - mpmath.mpf(vals[i])
        if w == 0:
            y = y + yp * h
            continue
        s = mpmath.sqrt(abs(w))
        if w > 0:
            c, sn = mpmath.cos(s * h), mpmath.sin(s * h)
            y, yp = y * c + yp * sn / s, yp * c - y * s * sn
        else:
            c, sn = mpmath.cosh(s * h), mpmath.sinh(s * h)
            y, yp = y * c + yp * sn / s, yp * c + y * s * sn
    return mpmath.atan2(y, yp)


@pytest.mark.parametrize(
    "edges, vals, atomw, lam",
    [
        # oscillating: w*h^2 = 51
        ([0.0, 1.0], [-50.0], [0.0, 0.0], 1.0),
        # w = 0 on the first cell, then |w|*h^2 = 4.5e-5 under the series
        # threshold either side of 0
        ([0.0, 0.4, 0.7, 1.0], [2.5, 2.5005, 2.4995], [0.0, 0.0, 0.0, 0.0], 2.5),
        # an atom kicks y' so that the last series term in w*h^2 = 9.0e-5
        # counts
        ([0.0, 0.05, 1.0], [0.5, 0.5 - 1e-4], [0.0, 40.0, 0.0], 0.5),
        # |w|*h^2 = 1.35e-4 and 3.6e-4 just above it, where the closed form
        # cancels most
        ([0.0, 0.3, 0.5, 1.0], [1.0, 1.0015, 0.9964], [0.0, 0.0, 0.0, 0.0], 1.0),
        # hyperbolic: w*h^2 = -12.5, then oscillating across an interior atom
        ([0.0, 0.5, 1.0], [51.0, -30.0], [0.0, -4.0, 0.0], 1.0),
        # sh = 500 > 350, the overflow-guarded branch, then a well
        ([0.0, 0.5, 0.6, 1.0], [1.0e6, -40.0, 0.0], [0.0, 0.0, 2.5, 0.0], 3.0),
        # many short cells, an atom on each side of the series threshold
        ([0.0, 0.01, 0.02, 0.5, 0.51, 1.0], [300.0, -300.0, 8.0, 5.0, 0.0], [0.0, -2.0, 0.0, 1.5, 0.0, 0.0], 7.0),
    ],
)
def test_slope_is_the_mismatch_derivative(edges, vals, atomw, lam):
    # dtheta(1)/dlam = integral of y^2 / (y(1)^2 + y'(1)^2): the kernel's sum of
    # per-cell closed forms and series against a 30-digit derivative.  The
    # closed form loses about 1e-16/(|w|*h^2) of each cell's integral to
    # cancellation at worst; on these cells it measured within 4e-15
    for k0sq, k1sq in ((0.25, 0.5), (0.0, 2.0)):
        slope = shoot_kernel(edges, vals, atomw, k0sq, k1sq, lam)[3]
        with mpmath.workdps(60):
            want = mpmath.diff(lambda x: _mp_angle(edges, vals, atomw, k0sq, x), mpmath.mpf(lam))
        assert slope == pytest.approx(float(want), rel=1e-12, abs=0.0), (k0sq, k1sq)


def test_cell_shares_are_the_eigenvalue_gradient():
    # Hellmann-Feynman: dlambda1/dv_i is the share of cell i in the integral of
    # y^2, each integral of y^2 over [0, x] taken from the slope of the shot
    # over the cells left of x, rescaled to the sampled eigenfunction
    q = Potential(
        segments=(Segment(0.1, 0.3, 6.0), Segment(0.3, 0.55, -9.0), Segment(0.7, 0.9, 4.0)),
        atoms=(DeltaAtom(0.62, -1.5),),
    )
    bc = RobinBC(0.25, 0.5)
    res = lambda1(q, bc, 1e-13)
    edges, vals, atomw, k0, _ = compile_arrays(q, bc)
    ys = res.ys[np.searchsorted(res.xs, edges)]
    prefix = [0.0]
    for j in range(1, len(edges)):
        tables = edges[: j + 1], vals[:j], atomw[: j + 1]
        yp, _, _, slope, _ = shoot_kernel(*tables, k0, 0.0, res.lambda1)
        y = shoot_kernel(*tables, k0, 1.0, res.lambda1)[0] - yp
        prefix.append(slope * (y * y + yp * yp) * (ys[j] / y) ** 2)
    shares = np.diff(prefix) / prefix[-1]
    for i, seg in enumerate(q.segments):
        cell = edges.index(seg.left)
        d = 1e-4
        up = Potential(segments=q.segments[:i] + (Segment(seg.left, seg.right, seg.value + d),) + q.segments[i + 1 :], atoms=q.atoms)
        down = Potential(segments=q.segments[:i] + (Segment(seg.left, seg.right, seg.value - d),) + q.segments[i + 1 :], atoms=q.atoms)
        fd = (lambda1_value(up, bc, 1e-13) - lambda1_value(down, bc, 1e-13)) / (2 * d)
        assert shares[cell] == pytest.approx(fd, rel=1e-6), (i, shares[cell], fd)


def test_zero_count_matches_sign_changes():
    # propagate_step counts a cell's interior zeros by sign change where the
    # cell holds at most one (w <= 0, or s*h < pi), else from the phase;
    # both against the sign changes of the cell's solution on a fine grid.
    # On a one-zero cell the count's parity is also the sign change of the
    # returned y, which shoot_kernel's atan2 of the sign-corrected state
    # takes as given.  The decaying mode past a deep well returns y1 =
    # -7.45e-9 beside y1' = 0.0; there the grid's cosh(s*x) of up to 2e9
    # cancels to noise, so only the parity is checked
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 20001)
    decaying = (0.020280120778886683, -1.0081822697718326, -2471.3658250469275, 0.44677178222228797)
    cells = [decaying, (1.0, -3.0, 0.0, 1.0), (-0.5, 0.25, 0.0, 1.0), (1.0, -1.0, 0.0, 1.0)]
    for _ in range(2000):
        y, yp = rng.uniform(-1.0, 1.0, 2)
        w = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0)
        h = 10.0 ** rng.uniform(-3.0, 0.0)
        cells.append((y, yp, w, h))
    for cell in cells:
        y, yp, w, h = cell
        y1, _, nz, _ = propagate_step(y, yp, w, h)
        s = math.sqrt(abs(w))
        if (w <= 0.0 or s * h < math.pi) and y != 0.0 and y1 != 0.0 and math.isfinite(y1):
            assert (-1) ** nz * math.copysign(1.0, y) == math.copysign(1.0, y1), cell
        if cell is decaying:
            continue
        x = t * h
        if w > 0.0:
            ys = y * np.cos(s * x) + yp * np.sin(s * x) / s
        elif w == 0.0:
            ys = y + yp * x
        else:
            ys = y * np.cosh(s * x) + yp * np.sinh(s * x) / s
        if np.min(np.abs(ys[[0, -1]])) < 1e-9:
            continue
        want = int(np.count_nonzero(np.sign(ys[1:]) != np.sign(ys[:-1])))
        assert nz == want, cell


# two cells of 0.5 under (0.25, 0.5), first eigenvalue 1.193, started at _S
PULLED = ([0.0, 0.5, 1.0], [0.5, 0.5], [0.0] * 3)
_S, _X, _Y = 11.2, 4.0, 4.5


def pull(x, below, slope):
    """A mismatch that keeps each shot's predicate but pulls Newton's step off the eigenvalue.

    On floats or on lane arrays alike.  From a shot at _S or above the step
    goes far below the search's limit, so the limit is shot next; from one
    below the eigenvalue it goes to _Y, from one above it two thirds of the
    way to _X.  Those above close in on _X by a factor 3 a step, too fast
    for rtsafe to bisect, so the bracket stays near [lo, _X] unless the ITP
    projection pulls a step toward its midpoint.
    """
    target = np.where(below, _Y, np.where(x < _S, _X, -1e3))
    k = np.where(below | (x >= _S), 1.0, 2.0 / 3.0)
    return k * (x - target) * slope


def pulled_shots(monkeypatch):
    """Make lambda1_kernel's shots pulled; returns the list of its shots from now on, each as (lam, below)."""
    real, shots = K.shoot_kernel, []

    def shot(*args):
        res, zc, _, slope, ok = real(*args)
        below = zc == 0 and res > 0.0
        shots.append((args[-1], below))
        return res, zc, float(pull(args[-1], below, slope)), slope, ok

    monkeypatch.setattr(K, "shoot_kernel", shot)
    return shots


def test_kernel_keeps_pace_with_bisection(monkeypatch):
    # the ITP projection: with reach_0 four times the stopping width doubled
    # up to the bracket at in-bracket step 0, the bracket after step j is at
    # most reach_0 * 2**-j, up to the rounding of its ends, though the pull
    # alone would keep it near [lo, _X]: the projection moves steps down to
    # mid + r
    tol = 1e-10
    want = lambda1_kernel(*PULLED, 0.25, 0.5, tol)[0]
    shots = pulled_shots(monkeypatch)
    lam, _, status = lambda1_kernel(*PULLED, 0.25, 0.5, tol, _S)
    assert status == 0 and abs(lam - want) <= tol
    lo, hi, reach, moved, widths = -math.inf, math.inf, 0.0, [], []
    for x, below in shots:
        if reach:
            mid, r = 0.5 * (lo + hi), reach - 0.5 * (hi - lo)
            moved.append(x == mid + r)
        lo, hi = (x, hi) if below else (lo, x)
        if reach:
            widths.append((hi - lo, reach + 2.0 * math.ulp(abs(lo) + abs(hi))))
            reach *= 0.5
        elif not (math.isinf(lo) or math.isinf(hi)):
            reach = tol + 1e-14 * max(lo, -hi, 0.0)
            while reach < hi - lo:
                reach *= 2.0
            reach *= 4.0
    assert len(widths) > 10 and all(w <= r for w, r in widths), widths
    assert any(moved), moved

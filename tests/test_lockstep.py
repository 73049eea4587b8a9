"""The lockstep solve gives every lane the bits of the scalar kernels.

``_lockstep.lambda1_lanes`` solves check_bounds' samples together, and
``shoot_lanes`` takes their shots: each shot is one numpy pass over every
real cell of every lane for the work that needs the trial eigenvalue but not
the state, then one numpy operation per cell that carries the state over the
lanes that have that cell.  ``lambda1_kernel`` and ``shoot_kernel``,
run on each lane's own tables, are their reference: (lam, width, status)
and every shot's outputs must match bit for bit, on the samples check_bounds
draws and on padded tables drawn to reach the rare branches: a
trigonometric cell with s*h >= pi, w == 0, a hyperbolic cell past s*h = 350,
a NaN start, a start below the eigenvalue, a log-scale bisection, a bracket
that falls behind bisection, a search that stalls, lanes that converge
many shots apart, a re-shot of a lost state, lanes that end
STATUS_NONFINITE or STATUS_TOL, and root-finding steps in which every lane,
no lane or some lanes still search for an end.  The lockstep itself takes
only the one-zero cell steps, the search down from a start above the
eigenvalue and the steps inside a bracket that the ITP projection would not
move: a lane that needs any other step, or whose state vanishes, leaves it
and is solved once by ``lambda1_kernel``, so a shot of such a lane is only
checked to report that it left, and check_bounds' samples never leave.
check_bounds passes a need that retires the lanes that cannot move its
report, and the last few lanes of a batch are solved alone; its reports
are the reports of solving every lane in lockstep.
"""

import dataclasses
import math
import struct
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robinsl._kernels as K
import robinsl._lockstep as L
import robinsl.verify as V
from robinsl import RobinBC, check_bounds
from robinsl._kernels import STATUS_NONFINITE, STATUS_OK, STATUS_TOL, lambda1_kernel, shoot_kernel
from robinsl._lockstep import lambda1_lanes, shoot_lanes
from robinsl._rng import derive_seeds
from robinsl.eigensolver import DEFAULT_TOL
from robinsl.errors import NonFiniteState, ToleranceNotReached
from robinsl.extrema import _eig0
from robinsl.extrema import all_extrema as _all_extrema
from robinsl.potential import compile_arrays
from test_block_draw import _row_tables, concentrated_sample
from test_kernels import PULLED, _S, pull, pulled_shots

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


def _assert_lanes_are_scalar(edges, vals, n, k0, k1, tol, start):
    """lambda1_lanes against lambda1_kernel on each lane's rows; returns the statuses."""
    lam, width, status = lambda1_lanes(edges, vals, n, k0, k1, tol, start)
    for r, (tables, s) in enumerate(zip(_row_tables(edges, vals, n), np.asarray(start, dtype=float).tolist())):
        want = lambda1_kernel(*tables, k0, k1, tol, s)
        got = (lam[r].item(), width[r].item(), status[r].item())
        assert _bits(*got[:2]) == _bits(*want[:2]) and got[2] == want[2], (r, got, want)
    return status.tolist()


def _padded(lanes):
    """(edges, vals, n) of lanes given as (edges, vals) lists, padded as _lanes pads them."""
    n = np.array([len(e) for e, _ in lanes])
    edges, vals = np.ones((len(lanes), n.max())), np.zeros((len(lanes), n.max() - 1))
    for r, (e, v) in enumerate(lanes):
        edges[r, : len(e)], vals[r, : len(v)] = e, v
    return edges, vals, n


def _concentrated_batch(seed, n, pieces_max, k0, lam0):
    """(edges, vals, n, starts) of n concentrated samples per class, each on a check_bounds sub-seed of seed."""
    lanes = [
        compile_arrays(concentrated_sample(pieces_max, sub, 1 - 2 * tag), RobinBC(0.0, 0.0))[:2]
        for tag in (0, 1)
        for sub in derive_seeds(seed, tag, 0, n).tolist()
    ]
    edges, vals, m = _padded(lanes)
    return edges, vals, m, V._first_order_starts(edges, vals, k0, lam0)


@pytest.mark.parametrize("concentrated", [False, True])
def test_lanes_of_check_bounds_samples(concentrated):
    # both classes in one batch, as check_bounds solves them: its own
    # samples, or as many samples with all their mass in a window of width
    # 1/pieces_max
    for k0, k1 in BC_GRID6:
        lam0 = _eig0(k0, k1)
        for pieces_max in (1, 8, 16, 64):
            if concentrated:
                edges, vals, n, starts = _concentrated_batch(20260809, 16, pieces_max, k0, lam0)
            else:
                (batch,) = V._batches(20260809, 16, pieces_max, k0, lam0)
                tags, _, edges, vals, n, starts = batch
                assert tags.tolist() == [0] * 16 + [1] * 16
            assert set(_assert_lanes_are_scalar(edges, vals, n, k0, k1, DEFAULT_TOL, starts)) == {STATUS_OK}


# a cell as wide as half the interval under a deep well (s*h >= pi), under a
# tall barrier (s*h > 350), a zero potential, a narrow cell
_SHAPES = [
    ([0.0, 0.5, 1.0], [-400.0, 0.0]),
    ([0.0, 0.3, 1.0], [1e7, 0.0]),
    ([0.0, 0.2, 0.7, 1.0], [3.0, -2.0, 5.0]),
    ([0.0, 1.0], [0.0]),
    ([0.0, 0.4, 0.4 + 1e-9, 1.0], [0.0, 1e4, 0.0]),
    ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], [1e12, -5.0, 0.0, 7.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e3]),
]


def test_crafted_lanes_take_the_rare_branches():
    lanes = _SHAPES * 3
    edges, vals, n = _padded(lanes)
    # NaN starts (the Rayleigh quotient), a value of the lane's own table
    # (w == 0 in that cell on the first shot), and finite starts that miss
    starts = [math.nan] * 6 + [v[-1] for _, v in _SHAPES] + [1.0, -50.0, 2.0, 0.5, 1e3, -1e3]
    for k0, k1 in ((0.25, 0.5), (0.0, 0.0), (1.0, 4.0)):
        assert set(_assert_lanes_are_scalar(edges, vals, n, k0, k1, DEFAULT_TOL, starts)) == {STATUS_OK}
    # a shot that must vanish: y' = -1024 = -s entering a cell where
    # exp(-2*s*h) is 0, so y and y' both cancel to 0 (STATUS_NONFINITE), and
    # a bracket about lam = 0 that cannot narrow to a subnormal tol in 200
    # steps from a start that misses (STATUS_TOL), beside lanes that converge
    edges, vals, n = _padded([([0.0, 0.5, 1.0], [2.0**20, 0.0]), ([0.0, 1.0], [0.0]), *_SHAPES[:3]])
    status = _assert_lanes_are_scalar(edges, vals, n, -1024.0, 0.0, DEFAULT_TOL, [0.0, math.nan, *[math.nan] * 3])
    assert status[0] == STATUS_NONFINITE
    status = _assert_lanes_are_scalar(edges[1:], vals[1:], n[1:], 0.0, 0.0, 1e-320, [-0.3, *[math.nan] * 3])
    assert status[0] == STATUS_TOL


def _step_shapes(edges, vals, n, k0, k1, tol, start):
    """The shapes of lambda1_lanes' root-finding steps on a batch, read off each lane's scalar shots.

    Step j shoots each lane whose scalar solve shoots a (j+1)-th time.  After
    its shot a lane is open while lo or hi is infinite; a lost shot reads as
    one above the eigenvalue (hi at the shot) until its bracket is restored.
    Returns one of "open" (every lane open), "closed" (none), "mixed" per
    step, and "lost-open" for an all-open step with a lost shot.
    """
    real, lanes = K.shoot_kernel, []

    def spy(*args):
        out = real(*args)
        lanes[-1].append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "shoot_kernel", spy)
        for tables, s in zip(_row_tables(edges, vals, n), np.asarray(start, dtype=float).tolist()):
            lanes.append([])
            lambda1_kernel(*tables, k0, k1, tol, s)
    steps = []
    for shots in lanes:
        lo_open = hi_open = True
        for j, (res, zc, _, _, ok) in enumerate(shots):
            if ok and zc == 0 and res > 0.0:
                lo_open = False
            elif ok:
                hi_open = False
            if j == len(steps):
                steps.append([])
            steps[j].append((lo_open or hi_open and ok, ok))
    shapes = []
    for step in steps:
        opened = [o for o, _ in step]
        shape = "open" if all(opened) else "closed" if not any(opened) else "mixed"
        lost = shape == "open" and not all(ok for _, ok in step)
        shapes.append("lost-open" if lost else shape)
    return shapes


def _near(lanes, k0, k1, above):
    """Each lane's first eigenvalue lam, moved up by above*(1 + |lam|)."""
    lams = [lambda1_kernel(*t, k0, k1, DEFAULT_TOL)[0] for t in _row_tables(*_padded(lanes))]
    return [lam + above * (1.0 + abs(lam)) for lam in lams]


# lanes whose first eigenvalue lies near -900 under k0sq = -30: from a start
# at 0 each searches ten shots for lo before it has a bracket
_DECAYING = [([0.0, 1.0], [0.0]), ([0.0, 0.5, 1.0], [1.0, 2.0]), ([0.0, 0.3, 1.0], [-1.0, 3.0])]


def test_steps_with_every_lane_open():
    edges, vals, n = _padded(_DECAYING)
    shapes = _step_shapes(edges, vals, n, -30.0, 0.0, DEFAULT_TOL, [0.0] * 3)
    assert shapes[:10] == ["open"] * 10, shapes
    assert set(_assert_lanes_are_scalar(edges, vals, n, -30.0, 0.0, DEFAULT_TOL, [0.0] * 3)) == {STATUS_OK}


def test_steps_with_no_lane_open():
    # starts just above each eigenvalue: every lane has its bracket after its
    # second shot, so every later step has only closed lanes
    edges, vals, n = _padded(_SHAPES)
    starts = _near(_SHAPES, 0.25, 0.5, 1e-6)
    shapes = _step_shapes(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts)
    assert shapes[0] == "open" and len(shapes) > 2 and set(shapes[1:]) == {"closed"}, shapes
    assert set(_assert_lanes_are_scalar(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts)) == {STATUS_OK}


def test_steps_with_open_and_closed_lanes():
    # under k0sq = -30 the lanes of _DECAYING started at 0 search for lo
    # nine shots after the same lanes started just above their eigenvalues
    # have their brackets, so those steps hold open and closed lanes
    edges, vals, n = _padded(_DECAYING * 2)
    starts = [0.0] * 3 + _near(_DECAYING, -30.0, 0.0, 1e-6)
    shapes = _step_shapes(edges, vals, n, -30.0, 0.0, DEFAULT_TOL, starts)
    assert shapes[:11] == ["open"] + ["mixed"] * 9 + ["closed"], shapes
    assert set(_assert_lanes_are_scalar(edges, vals, n, -30.0, 0.0, DEFAULT_TOL, starts)) == {STATUS_OK}


def test_lost_shot_in_a_step_with_every_lane_open():
    # the first shot of lane 0 vanishes (y' = -1024 = -s entering a cell
    # where exp(-2*s*h) is 0) while no lane has a bracket: it ends
    # STATUS_NONFINITE, and the other lanes go on searching from that step
    edges, vals, n = _padded([([0.0, 0.5, 1.0], [2.0**20, 0.0]), *_DECAYING])
    shapes = _step_shapes(edges, vals, n, -1024.0, 0.0, DEFAULT_TOL, [0.0] * 4)
    assert shapes[:3] == ["lost-open", "open", "open"], shapes
    status = _assert_lanes_are_scalar(edges, vals, n, -1024.0, 0.0, DEFAULT_TOL, [0.0] * 4)
    assert status == [STATUS_NONFINITE, STATUS_OK, STATUS_OK, STATUS_OK], status


_VALUES = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -400.0, 1e4, 1e7, -1e4]),
    st.floats(-1e8, 1e8),
)


@st.composite
def padded_lanes(draw):
    """1 to 6 lanes of 1 to 8 cells, each with a start: NaN, one of its values, or any."""
    lanes, starts = [], []
    for _ in range(draw(st.integers(1, 6))):
        cuts = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=7, unique=True))
        edges = [0.0, *sorted(cuts), 1.0]
        vals = draw(st.lists(_VALUES, min_size=len(edges) - 1, max_size=len(edges) - 1))
        lanes.append((edges, vals))
        starts.append(draw(st.one_of(st.just(math.nan), st.sampled_from(vals), st.floats(-1e3, 1e3))))
    return (*_padded(lanes), starts)


@settings(max_examples=25, deadline=None)
@given(case=padded_lanes(), bc=st.sampled_from([*BC_GRID6, (-3.0, 2.0), (0.0, -0.5)]))
def test_random_padded_lanes(case, bc):
    _assert_lanes_are_scalar(*case[:3], *bc, DEFAULT_TOL, case[3])


def _leaves(edges, vals, lam):
    """Whether a shot at lam meets a cell the lockstep does not take:
    w == 0, a hyperbolic one with s*h > 350 or a trigonometric one with s*h >= pi."""
    for i, q in enumerate(vals):
        w = lam - q
        sh = math.sqrt(abs(w)) * (edges[i + 1] - edges[i])
        if w == 0.0 or (w < 0.0 and sh > 350.0) or (w > 0.0 and sh >= math.pi):
            return True
    return False


def _assert_shots_are_scalar(edges, vals, n, k0, k1, lam):
    """shoot_lanes against shoot_kernel, lane r at lam[r], in lambda1_lanes' layout; returns ok.

    A lane is not ok exactly when its scalar shot fails or meets a cell the
    lockstep does not take; every other lane has the scalar shot's bits.
    """
    order = np.argsort(-n, kind="stable")
    h = np.diff(edges[order], axis=1).T.copy()
    got = shoot_lanes(h, vals[order].T.copy(), L._cols(n[order] - 1), k0, k1, np.asarray(lam, dtype=float)[order])
    for j, (r, tables) in enumerate(zip(order.tolist(), _row_tables(edges[order], vals[order], n[order]))):
        want = shoot_kernel(*tables, k0, k1, float(lam[r]))
        stays = want[4] and not _leaves(*tables[:2], float(lam[r]))
        assert bool(got[4][j]) == stays, (r, lam[r])
        if stays:
            assert _bits(*(x[j].item() for x in got[:4])) == _bits(*want[:4]), (r, lam[r])
    return got[4][np.argsort(order)].tolist()


_OFFSETS = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6))


@settings(max_examples=25, deadline=None)
@given(case=padded_lanes(), bc=st.sampled_from([*BC_GRID6, (-3.0, 2.0)]), offsets=st.lists(_OFFSETS, min_size=6, max_size=6))
def test_shots_are_the_scalar_shots(case, bc, offsets):
    # a shot of each lane at its start (NaN at its first value), moved by an
    # offset: small ones mostly keep a lane in the lockstep, large ones
    # mostly take it past s*h = 350 or pi
    edges, vals, n, starts = case
    lam = [(v[0] if math.isnan(s) else s) + d for s, v, d in zip(starts, vals.tolist(), offsets)]
    _assert_shots_are_scalar(edges, vals, n, *bc, lam)


def test_crafted_shots():
    # each shape at one of its values (w == 0), below a deep well (a
    # hyperbolic s*h > 350) and above a barrier (a trigonometric s*h >= pi)
    # leaves; at 0 only the third shape, one trigonometric cell between two
    # hyperbolic ones, stays
    edges, vals, n = _padded(_SHAPES)
    for k0, k1 in ((0.25, 0.5), (-3.0, 2.0)):
        for lam in ([v[1 % len(v)] for _, v in _SHAPES], [-1e6] * 6, [1e5] * 6):
            assert _assert_shots_are_scalar(edges, vals, n, k0, k1, lam) == [False] * 6
        stays = _assert_shots_are_scalar(edges, vals, n, k0, k1, [0.0] * 6)
        assert stays == [False, False, True, False, False, False]
    # the bounds of the cells taken: s*h = 3.13 and 3.16 about pi, s*h = 350
    # exactly and just past it
    edges, vals, n = _padded([([0.0, 1.0], [0.0])] * 4)
    stays = _assert_shots_are_scalar(edges, vals, n, 0.25, 0.5, [9.8, 10.0, -122500.0, -122501.0])
    assert stays == [True, False, True, False]
    # no state overflows on a cell the lockstep takes: start_state puts
    # |y|, |y'| <= 1 into the first cell and the rescale into every later
    # one, and such a cell has cosh(s*h) <= cosh(350) and s = sqrt(|w|) of a
    # finite w.  So k0sq = 1e308 entering a hyperbolic cell of s*h = 1.2,
    # whose unscaled y' once overflowed, stays with the scalar bits.  A state
    # can still vanish: y' = -1024 = -s entering a cell of s*h = 256, where
    # cosh and sinh are equal floats, cancels both y and y'
    edges, vals, n = _padded([([0.0, 1.0], [1.44]), ([0.0, 0.25, 1.0], [2.0**20, -1.0])])
    assert _assert_shots_are_scalar(edges[:1], vals[:1], n[:1], 1e308, 0.0, [0.0]) == [True]
    assert _assert_shots_are_scalar(edges[1:], vals[1:], n[1:], -1024.0, 0.0, [0.0]) == [False]


def test_no_math_call_touches_padding(monkeypatch):
    # at a trial lam < 0 every padding entry (width 0, value 0) would be
    # hyperbolic; cosh and sinh must run once per real hyperbolic cell, and
    # atanh never: a hyperbolic cell counts its zero by the sign change of
    # y, in both kernels.  A mapped padding entry costs time that no bit
    # test sees
    lanes = [
        ([0.0, 0.1, 0.3, 0.45, 0.7, 1.0], [2.0, -4.0, 0.5, -1.0, 3.0]),
        ([0.0, 0.25, 0.5, 1.0], [1.0, -9.0, 0.0]),
        ([0.0, 0.6, 1.0], [-0.5, 6.0]),
        ([0.0, 1.0], [0.25]),
    ]
    edges, vals, n = _padded(lanes)
    lam = [-1.25, -2.0, -0.75, -1.5]
    calls = {"cosh": 0, "sinh": 0, "atanh": 0}

    def counted(name):
        f = getattr(math, name)

        def g(x):
            calls[name] += 1
            return f(x)

        return g

    for name in calls:
        monkeypatch.setattr(math, name, counted(name))
    # y' = -3 entering a first, hyperbolic cell of s < 3 heads y for zero:
    # every lane's y crosses it once, on a hyperbolic cell but in the second
    # lane, whose crossing is trigonometric; every lane stays in the lockstep
    zeros = [shoot_kernel(*tables, -3.0, 0.5, x)[1] for tables, x in zip(_row_tables(edges, vals, n), lam)]
    assert zeros == [1, 1, 1, 1], zeros
    scalar = dict(calls)
    assert all(_assert_shots_are_scalar(edges, vals, n, -3.0, 0.5, lam))
    lockstep = {name: calls[name] - 2 * scalar[name] for name in calls}
    hyperbolic = sum(x < v for (_, vs), x in zip(lanes, lam) for v in vs)
    assert lockstep["cosh"] == lockstep["sinh"] == scalar["cosh"] == hyperbolic == 9, (lockstep, scalar)
    assert lockstep["atanh"] == scalar["atanh"] == 0, (lockstep, scalar)


def _solved_alone(monkeypatch):
    """The lambda1_kernel calls that lambda1_lanes makes from now on, each as its argument tuple."""
    real, calls = L.lambda1_kernel, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(L, "lambda1_kernel", spy)
    return calls


def _left(monkeypatch):
    """The lambda1_kernel calls of lanes that leave the lockstep by a leave rule, from now on.

    With _FINISH at 0, lambda1_lanes solves no lane alone at the end: each
    lane shoots until it settles or check_bounds' need retires it, through
    every step it takes in check_bounds and the steps the finished lanes
    would have taken, so the spy sees only the lanes in its out mask.
    """
    monkeypatch.setattr(L, "_FINISH", 0)
    return _solved_alone(monkeypatch)


@pytest.mark.parametrize("pieces_max", [1, 8, 16, 64])
def test_no_check_bounds_lane_leaves(monkeypatch, pieces_max):
    # check_bounds' samples take only the cell and root-finding steps of the
    # lockstep, at the acceptance pairs and at coefficients past 1.34e154,
    # where start_state scales the start
    calls = _left(monkeypatch)
    for k0, k1 in BC_GRID6:
        check_bounds(RobinBC(k0, k1), 1000, pieces_max, 20260809)
    check_bounds(RobinBC(1e155, 1e155), 250, pieces_max, 20260809)
    assert calls == []


@pytest.mark.parametrize("pieces_max", [8, 16])
def test_no_lane_leaves_at_large_coefficients(monkeypatch, pieces_max):
    # coefficients up to the float range, where lam0 and the starts are huge
    # or the bracket spans decades above zero: the lanes still take only the
    # downward search and steps the projection does not move
    calls = _left(monkeypatch)
    for k0, k1 in ((1e300, 1e300), (1e160, 1e300), (0.0, 1e100), (1e150, 1e150)):
        check_bounds(RobinBC(k0, k1), 250, pieces_max, 20260809)
    assert calls == []


def _leaving(edges, vals, n, k0, k1, tol, start):
    """Why each lane leaves the lockstep, read off its scalar solve: {lane: reason}.

    The reason is the first step of the solve that the lockstep does not
    take: "start" (a start that is not finite), "shot" (a shot that fails or
    meets a cell the lockstep does not take), "below" (a first shot below
    the eigenvalue), "behind" (at the j-th step inside the bracket, hi - lo
    above 2**(1 - j) times its width at step 0) or "log" (a bisection in log
    scale, the one place where lambda1_kernel calls sqrt itself).  A lane
    whose search stalls, lo still open after a closing step, also leaves;
    the spy cannot tell a closing step from the shots, so that rule is
    checked by hand in test_a_stalled_search_leaves.
    """
    real, why = K.shoot_kernel, {}

    def spy(*args):
        nonlocal lo, hi, cap
        out = real(*args)
        x, (res, zc, _, _, ok) = args[-1], out
        if not ok or _leaves(*args[:2], x):
            why.setdefault(r, "shot")
        elif zc == 0 and res > 0.0:
            if math.isinf(hi):
                why.setdefault(r, "below")
            lo = x
        else:
            hi = x
        mid = 0.5 * (lo + hi)
        if not (math.isinf(lo) or math.isinf(hi) or hi - lo <= tol + 1e-14 * abs(mid) or not lo < mid < hi):
            cap = cap or 2.0 * (hi - lo)
            if hi - lo > cap:
                why.setdefault(r, "behind")
            cap = 0.5 * cap
        return out

    def sqrt(x):
        if sys._getframe(1).f_code is lambda1_kernel.__code__:
            why.setdefault(r, "log")
        return math.sqrt(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "shoot_kernel", spy)
        mp.setattr(K, "math", types.SimpleNamespace(**{**vars(math), "sqrt": sqrt}))
        for r, (tables, s) in enumerate(zip(_row_tables(edges, vals, n), start)):
            lo, hi, cap = -math.inf, math.inf, 0.0
            if not math.isfinite(s):
                why[r] = "start"
            lambda1_kernel(*tables, k0, k1, tol, s)
    return why


def _assert_solved_alone(calls, edges, vals, n, k0, k1, starts, leaving):
    """calls holds one lambda1_kernel call per lane of leaving, on its own tables and start, as floats."""
    tables = _row_tables(edges, vals, n)
    want = sorted(_bits(*tables[r][0], *tables[r][1], *tables[r][2], k0, k1, DEFAULT_TOL, starts[r]) for r in leaving)
    assert sorted(_bits(*e, *q, *a, *rest) for e, q, a, *rest in calls) == want
    assert all(type(x) is float for e, q, a, *_ in calls for x in (*e, *q, *a))


def test_each_leaving_lane_is_solved_once_alone(monkeypatch):
    # the crafted lanes and starts of test_crafted_lanes_take_the_rare_branches,
    # and the shapes started just above their eigenvalues, most of which
    # stay: one lambda1_kernel call per lane that leaves, on its own tables
    # and start
    edges, vals, n = _padded(_SHAPES * 4)
    calls = _solved_alone(monkeypatch)
    for k0, k1 in ((0.25, 0.5), (0.0, 0.0), (1.0, 4.0)):
        starts = [math.nan] * 6 + [v[-1] for _, v in _SHAPES] + [1.0, -50.0, 2.0, 0.5, 1e3, -1e3]
        starts += _near(_SHAPES, k0, k1, 1e-6)
        calls.clear()
        lambda1_lanes(edges, vals, n, k0, k1, DEFAULT_TOL, starts)
        leaving = _leaving(edges, vals, n, k0, k1, DEFAULT_TOL, starts)
        assert 0 < len(leaving) < len(starts), leaving
        _assert_solved_alone(calls, edges, vals, n, k0, k1, starts, leaving)


def test_each_leave_rule_sends_its_lane_alone(monkeypatch):
    # a NaN start (the Rayleigh quotient), a start below the eigenvalue, and
    # a plateau of 1e5 in 32 cells started 5 % above it, whose bracket
    # [lo >= 0, hi > 16*(lo + 1)] bisects in log scale, each leave at that
    # step, beside a lane that stays; each is solved alone once
    plateau = ([i / 32 for i in range(33)], [1e5] * 32)
    lanes = [([0.0, 1.0], [3.0])] * 3 + [plateau]
    edges, vals, n = _padded(lanes)
    starts = [math.nan, 0.0, *_near(lanes[2:3], 0.25, 0.5, 1e-6), 1.05e5]
    assert _leaving(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts) == {0: "start", 1: "below", 3: "log"}
    real, shot = L.shoot_lanes, []

    def counted(*args):
        shot.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(L, "shoot_lanes", counted)
    calls = _solved_alone(monkeypatch)
    assert set(_assert_lanes_are_scalar(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts)) == {STATUS_OK}
    _assert_solved_alone(calls, edges, vals, n, 0.25, 0.5, starts, [0, 1, 3])
    # the first two leave after their first shot, the plateau after its
    # third, when the lane that stays has its answer
    assert shot == [4, 2, 2], shot


def test_a_bracket_behind_bisection_leaves(monkeypatch):
    # both kernels pulled as in test_kernels.test_kernel_keeps_pace_with_bisection:
    # the lane's bracket falls behind bisection, where the projection would
    # move its step, and it leaves there to be solved alone once
    real = L.shoot_lanes

    def lanes(*args):
        res, zc, _, slope, ok = real(*args)
        return res, zc, pull(args[-1], (zc == 0.0) & (res > 0.0), slope), slope, ok

    pulled_shots(monkeypatch)
    monkeypatch.setattr(L, "shoot_lanes", lanes)
    edges, vals, n = _padded([PULLED[:2]])
    assert _leaving(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, [_S]) == {0: "behind"}
    calls = _solved_alone(monkeypatch)
    assert _assert_lanes_are_scalar(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, [_S]) == [STATUS_OK]
    _assert_solved_alone(calls, edges, vals, n, 0.25, 0.5, [_S], [0])


# at and above _FLAT both kernels give a zero mismatch
_FLAT = 9.0


def test_a_stalled_search_leaves(monkeypatch):
    # a lane started at 10, above its eigenvalue near 3.7 and in the flat
    # mismatch: Newton's step is empty, so the search closes by half a
    # stopping width, and the next shot, still above the eigenvalue, stalls
    # the kernel's search, which goes to its limit.  The lane leaves at that
    # shot, beside a lane that stays, and is solved alone once
    real_shot, real_lanes = K.shoot_kernel, L.shoot_lanes
    shots = []

    def shot(*args):
        shots.append(args[-1])
        res, zc, f, slope, ok = real_shot(*args)
        return res, zc, 0.0 if args[-1] >= _FLAT else f, slope, ok

    def lanes(*args):
        res, zc, f, slope, ok = real_lanes(*args)
        return res, zc, np.where(args[-1] >= _FLAT, 0.0, f), slope, ok

    monkeypatch.setattr(K, "shoot_kernel", shot)
    monkeypatch.setattr(L, "shoot_lanes", lanes)
    lane = [([0.0, 1.0], [3.0])]
    edges, vals, n = _padded(lane * 2)
    starts = [10.0, *_near(lane, 0.25, 0.5, 1e-6)]
    # the scalar search stalls: its closing shot half a stopping width down
    # is still above the eigenvalue, and the next goes to the limit
    # min(-|integral of q|, 2x - 1) = -3
    shots.clear()
    lambda1_kernel(*_row_tables(edges, vals, n)[0], 0.25, 0.5, DEFAULT_TOL, 10.0)
    assert shots[:3] == [10.0, 10.0 - 0.5 * (DEFAULT_TOL + 1e-14 * 10.0), -3.0], shots
    # and no other rule sends the lane away
    assert _leaving(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts) == {}
    calls = _solved_alone(monkeypatch)
    assert _assert_lanes_are_scalar(edges, vals, n, 0.25, 0.5, DEFAULT_TOL, starts) == [STATUS_OK] * 2
    _assert_solved_alone(calls, edges, vals, n, 0.25, 0.5, starts, [0])


def _lost(x):
    # a shot that the fault injection below loses: about one in five, by the bits of its lam
    return (struct.unpack("<Q", struct.pack("<d", x))[0] >> 7) % 5 == 0


def test_lost_shots_are_taken_again(monkeypatch):
    # both kernels lose the same shots; inside a bracket a lane shoots again
    # a quarter stopping width toward its middle, and a lane that loses a
    # fourth shot or one while an end is open ends STATUS_NONFINITE
    real_shot, real_lanes = K.shoot_kernel, L.shoot_lanes
    lost = []
    (batch,) = V._batches(5, 60, 16, 0.25, _eig0(0.25, 0.5))

    def shot(*args):
        if _lost(args[-1]):
            lost.append(args[-1])
            return 0.0, -1, 0.0, 0.0, False
        return real_shot(*args)

    def lanes(*args):
        res, zc, f, slope, ok = real_lanes(*args)
        gone = (args[-1].view(np.uint64) >> np.uint64(7)) % np.uint64(5) == 0
        return res, zc, f, slope, ok & ~gone

    monkeypatch.setattr(K, "shoot_kernel", shot)
    monkeypatch.setattr(L, "shoot_lanes", lanes)
    status = _assert_lanes_are_scalar(*batch[2:5], 0.25, 0.5, DEFAULT_TOL, batch[5])
    assert {STATUS_OK, STATUS_NONFINITE} <= set(status)
    # some lost shots were survived: re-shots inside a bracket
    assert len(lost) > status.count(STATUS_NONFINITE)


def test_batches_split_the_report_nowhere(monkeypatch):
    # small batches, one of them holding both classes, give the report of
    # one batch: its bookkeeping and every violation's sample index
    real = V.all_extrema

    def unreachable(bc):
        return [dataclasses.replace(r, value=-1e9 if r.kind == "M1minus" else r.value) for r in real(bc)]

    monkeypatch.setattr(V, "all_extrema", unreachable)
    whole = dataclasses.asdict(check_bounds(RobinBC(0.25, 0.5), 100, 8, 11))
    assert len(whole["violations"]) == 100
    # 45 samples of 8 pieces or fewer, 11 table entries each, to a batch
    monkeypatch.setattr(V, "_BATCH", 45 * 11)
    tags = [b[0].tolist() for b in V._batches(11, 100, 8, 0.25, _eig0(0.25, 0.5))]
    assert [len(t) for t in tags] == [45, 45, 45, 45, 20]
    assert len(tags) > 2 and [0, 1] in [sorted(set(t)) for t in tags]
    assert dataclasses.asdict(check_bounds(RobinBC(0.25, 0.5), 100, 8, 11)) == whole


def _midway(bc):
    # M1plus and m1minus cut halfway into their classes' ranges, so that
    # some samples of each class violate and some do not
    real = _all_extrema(bc)
    ext = {r.kind: r.value for r in real}
    cut = {"M1plus": (ext["m1plus"] + ext["M1plus"]) / 2, "m1minus": (ext["m1minus"] + ext["M1minus"]) / 2}
    return [dataclasses.replace(r, value=cut.get(r.kind, r.value)) for r in real]


# the ids end in "False", the plain draw's, as they did beside the
# concentrated draw that the sampler no longer has
@pytest.mark.parametrize("pieces_max", [1, 8, 64], ids=lambda p: f"{p}-False")
def test_batch_size_changes_no_report(monkeypatch, pieces_max):
    # batches that end a class mid-way, the default batches and one batch
    # for every sample give the same report, violations and their
    # regenerated potentials included
    monkeypatch.setattr(V, "all_extrema", _midway)
    reports = []
    for batch in (37 * (pieces_max + 3), V._BATCH, 2**20):
        monkeypatch.setattr(V, "_BATCH", batch)
        reports.append(
            [
                dataclasses.asdict(check_bounds(RobinBC(k0, k1), 50, pieces_max, 11))
                for k0, k1 in BC_GRID6[1::4]
            ]
        )
    assert reports[0] == reports[1] == reports[2]
    violations = [v for r in reports[0] for v in r["violations"]]
    assert {v["bound"] for v in violations} == {"M1plus", "m1minus"} and len(violations) < 200


@pytest.mark.parametrize("pieces_max", [1, 8, 16, 64])
def test_retirement_changes_no_report(monkeypatch, pieces_max):
    # lanes that check_bounds' need retires, and the lanes that lambda1_lanes
    # then solves alone, give the report of solving every lane in lockstep:
    # at the acceptance pairs, in the default batches and in batches that
    # end a class mid-way, and with violations of both bounds
    real, batches = V.lambda1_lanes, (V._BATCH, 37 * (pieces_max + 3))
    retired = []

    def counted(*args):
        lam, width, status = real(*args)
        retired.append(int((status == L.STATUS_RETIRED).sum()))
        return lam, width, status

    def reports():
        out = []
        for batch in batches:
            monkeypatch.setattr(V, "_BATCH", batch)
            # the true extrema; two of them cut into their classes, so some
            # samples violate; and the same with a slack that takes in every
            # sample, so the least of class - and the greatest of class + are
            # not the nearest to an extremum and violate nothing
            for cut, slack in ((V.all_extrema, V.BOUND_TOL), (_midway, V.BOUND_TOL), (_midway, 1.0)):
                with monkeypatch.context() as mp:
                    mp.setattr(V, "all_extrema", cut)
                    mp.setattr(V, "BOUND_TOL", slack)
                    out += [dataclasses.asdict(check_bounds(RobinBC(*bc), 50, pieces_max, 7)) for bc in BC_GRID6]
        return out

    monkeypatch.setattr(V, "lambda1_lanes", counted)
    got = reports()
    assert sum(retired) > 0, retired
    # the violated bounds of each of the three cases, over both batch sizes
    bounds = [{v["bound"] for r in got[i : i + 6] + got[i + 18 : i + 24] for v in r["violations"]} for i in (0, 6, 12)]
    assert bounds == [set(), {"M1plus", "m1minus"}, set()], bounds
    # every lane solved to full width: lambda1_lanes without need
    monkeypatch.setattr(V, "lambda1_lanes", lambda *args: real(*args[:7]))
    assert reports() == got


def _peak(n, pieces_max):
    """The tracemalloc peak of one check_bounds call, in bytes."""
    tracemalloc.start()
    try:
        check_bounds(RobinBC(0.25, 0.5), n, pieces_max, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_is_bounded():
    # a batch's draw, tables and solve are sized by _BATCH, not by n: the
    # tracemalloc peak of a criterion-5 call and of --pieces-max 64 calls
    for n, pieces_max in ((10**4, 8), (3000, 64)):
        peak = _peak(n, pieces_max)
        assert peak < 6 * 2**20, (n, pieces_max, peak)


def test_a_call_holds_one_batch_at_a_time():
    # check_bounds drops each batch before it draws the next: a call of
    # seven batches peaks where a call of one full batch does, not a
    # batch above it
    size = V._BATCH // (8 + 3)
    assert -(-2 * 10**4 // size) == 7
    one, seven = _peak(size // 2, 8), _peak(10**4, 8)
    assert seven <= 1.1 * one, (one, seven)


@pytest.mark.parametrize("error, status", [(ToleranceNotReached, STATUS_TOL), (NonFiniteState, STATUS_NONFINITE)])
def test_first_unsolved_sample_raises(monkeypatch, error, status):
    # the first lane in sample order that is not OK raises what a scalar
    # solve with its status raises: here sample 70 of class 0, before
    # sample 3 of class 1 in the same batch
    real = V.lambda1_lanes
    seen = []

    def failing(edges, vals, n, *args):
        lam, width, st_ = real(edges, vals, n, *args)
        st_[[70, 103]] = status, STATUS_TOL
        seen.append((lam[70].item(), width[70].item()))
        return lam, width, st_

    monkeypatch.setattr(V, "lambda1_lanes", failing)
    with pytest.raises(error) as info:
        check_bounds(RobinBC(0.25, 0.5), 100, 8, 11)
    if error is ToleranceNotReached:
        lam, width = seen[0]
        assert f"{width:.3e} > tol + 1e-14*|lam| = {DEFAULT_TOL + 1e-14 * abs(lam):.3e}" in str(info.value)

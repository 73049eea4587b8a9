"""The lockstep solve gives every lane the bits of the scalar kernels.

``_lockstep.lambda1_lanes`` solves check_bounds' samples together, one numpy
operation per cell or root-finding step over all lanes, and
``shoot_lanes`` takes their shots.  ``lambda1_kernel`` and ``shoot_kernel``,
run on each lane's own tables, are their reference: (lam, width, status)
and every shot's outputs must match bit for bit, on the samples check_bounds
draws and on padded tables drawn to reach the rare branches: a
trigonometric cell with s*h >= pi, w == 0, a hyperbolic cell past s*h = 350,
a NaN start, lanes that converge many shots apart, a re-shot of a lost
state, and lanes that end STATUS_NONFINITE or STATUS_TOL.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robinsl._kernels as K
import robinsl._lockstep as L
import robinsl.verify as V
from robinsl import JIT_ENABLED, RobinBC, check_bounds
from robinsl._kernels import STATUS_NONFINITE, STATUS_OK, STATUS_TOL, lambda1_kernel, shoot_kernel
from robinsl._lockstep import lambda1_lanes, shoot_lanes
from robinsl.eigensolver import DEFAULT_TOL
from robinsl.errors import NonFiniteState, ToleranceNotReached
from robinsl.extrema import _eig0
from test_block_draw import _row_tables

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


@pytest.mark.parametrize("concentrated", [False, True])
def test_lanes_of_check_bounds_samples(concentrated):
    # both classes in one batch, as check_bounds solves them
    for k0, k1 in BC_GRID6:
        lam0 = _eig0(k0, k1)
        for pieces_max in (1, 8, 16, 64):
            (batch,) = V._batches(20260809, 16, pieces_max, concentrated, k0, lam0)
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


def _assert_shots_are_scalar(edges, vals, n, k0, k1, lam):
    """shoot_lanes against shoot_kernel, lane r at lam[r], in lambda1_lanes' layout; returns ok."""
    order = np.argsort(-n, kind="stable")
    h = np.diff(edges[order], axis=1).T.copy()
    got = shoot_lanes(h, vals[order].T.copy(), L._cols(n[order] - 1), k0, k1, np.asarray(lam, dtype=float)[order])
    for j, (r, tables) in enumerate(zip(order.tolist(), _row_tables(edges[order], vals[order], n[order]))):
        want = shoot_kernel(*tables, k0, k1, float(lam[r]))
        assert bool(got[4][j]) == want[4], r
        assert _bits(*(x[j].item() for x in got[:4])) == _bits(*want[:4]), (r, lam[r])
    return got[4][np.argsort(order)].tolist()


@settings(max_examples=25, deadline=None)
@given(case=padded_lanes(), bc=st.sampled_from([*BC_GRID6, (-3.0, 2.0)]), offsets=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
def test_shots_are_the_scalar_shots(case, bc, offsets):
    # a shot of each lane at its start (NaN at its first value), moved by an offset
    edges, vals, n, starts = case
    lam = [(v[0] if math.isnan(s) else s) + d for s, v, d in zip(starts, vals.tolist(), offsets)]
    _assert_shots_are_scalar(edges, vals, n, *bc, lam)


def test_crafted_shots():
    # each shape at one of its values (w == 0), below a deep well, above a
    # barrier, and at 0
    edges, vals, n = _padded(_SHAPES)
    for k0, k1 in ((0.25, 0.5), (-3.0, 2.0)):
        for lam in ([v[1 % len(v)] for _, v in _SHAPES], [-1e6] * 6, [1e5] * 6, [0.0] * 6):
            assert all(_assert_shots_are_scalar(edges, vals, n, k0, k1, lam))
    # scales that fail: y' = 1e308 entering a hyperbolic cell of s*h = 1.2
    # overflows y' alone, leaving y = 0 beside a NaN y' past the last cell;
    # y' = -1024 = -s entering one where exp(-2*s*h) is 0 cancels both
    edges, vals, n = _padded([([0.0, 1.0], [1.44]), ([0.0, 0.5, 1.0], [2.0**20, 0.0])])
    assert _assert_shots_are_scalar(edges[:1], vals[:1], n[:1], 1e308, 0.0, [0.0]) == [False]
    assert _assert_shots_are_scalar(edges[1:], vals[1:], n[1:], -1024.0, 0.0, [0.0]) == [False]


def _lost(x):
    # a shot that the fault injection below loses: about one in five, by the bits of its lam
    return (struct.unpack("<Q", struct.pack("<d", x))[0] >> 7) % 5 == 0


@pytest.mark.skipif(JIT_ENABLED, reason="compiled kernels call shoot_kernel without the module lookup")
def test_lost_shots_are_taken_again(monkeypatch):
    # both kernels lose the same shots; inside a bracket a lane shoots again
    # a quarter stopping width toward its middle, and a lane that loses a
    # fourth shot or one while an end is open ends STATUS_NONFINITE
    real_shot, real_lanes = K.shoot_kernel, L.shoot_lanes
    lost = []
    (batch,) = V._batches(5, 60, 16, False, 0.25, _eig0(0.25, 0.5))

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
    monkeypatch.setattr(V, "_BATCH", 500)
    tags = [b[0].tolist() for b in V._batches(11, 100, 8, False, 0.25, _eig0(0.25, 0.5))]
    assert len(tags) > 2 and [0, 1] in [sorted(set(t)) for t in tags]
    assert dataclasses.asdict(check_bounds(RobinBC(0.25, 0.5), 100, 8, 11)) == whole


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

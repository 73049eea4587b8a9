"""lambda1_kernel certified by an exact shot in mpmath.

``_mp_below`` evaluates the kernel's own predicate on the kernel's own cell
tables, in mpmath: a trial lam lies below the first eigenvalue exactly when
the shot from y(0) = 1, y'(0) = k0sq has no zero in (0, 1] and
y'(1) + k1sq*y(1) > 0.  A solve is certified when the predicate holds at
lam - b and fails at lam + b, with b half the kernel's stopping width plus
four ulps of lam: the first eigenvalue of the float problem then lies within
b of lam.  The test_replay_* tests replay through the solver the input sets
it was checked on against a plain bisection, before that reference was
retired: unit-mass samples, the half-interval problems, strength-map atoms,
mixed-sign potentials and the inputs on which the plain bisection failed.
The square well's even-state equation, a closed form that is not the shot,
checks it in turn.  The kernel certifies its bracket with float shots; where
rounding makes one of them wrong, as on two wells under a barrier, the
result can miss its band (ROADMAP item 5).
"""

import math
from functools import partial

import mpmath
from mpmath import libmp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robinsl._kernels as K
from robinsl import DeltaAtom, Potential, RobinBC, Segment, delta_strength, sup_plus
from robinsl.eigensolver import _solve_arrays, compile_arrays, lambda1_value
from robinsl.extrema import _MU_TOL, _eig0, left_half_eigenvalue, right_half_eigenvalue
from robinsl.verify import _lanes, regenerate, sample_unit_mass
from test_block_draw import _row_tables, concentrated_sample

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]
# the zero potential's cell tables, as compile_arrays gives them
_EDGES0, _VALS0, _ATOMW0 = [0.0, 1.0], [0.0], [0.0, 0.0]


def _mp_below(edges, vals, atomw, k0sq, k1sq, lam):
    """The kernel's predicate at lam, exactly: no zero of the shot in (0, 1] and y'(1) + k1sq*y(1) > 0.

    A shot positive at both ends of a cell has a zero inside only if it
    oscillates there through at least pi of phase.  The state may be scaled
    by any positive factor, which the hyperbolic cells use.  The arithmetic
    is mpmath's on raw mpf values, at 30 digits plus 2*sqrt(depth)/ln 10,
    which cover the cancellation of the growing mode under deep wells and
    atoms.
    """
    depth = max(0.0, max(vals) - lam)
    prec = int(math.log2(10.0) * (30 + 2.0 * math.sqrt(depth) / math.log(10.0)))

    add, sub, mul, div = (
        partial(f, prec=prec, rnd="n") for f in (libmp.mpf_add, libmp.mpf_sub, libmp.mpf_mul, libmp.mpf_div)
    )
    mp = libmp.from_float
    edges, vals = [mp(x) for x in edges], [mp(v) for v in vals]
    lam, pi, one = mp(lam), libmp.mpf_pi(prec, "n"), libmp.fone
    y, yp = one, mp(k0sq)
    for i in range(len(vals)):
        if i > 0 and atomw[i]:
            yp = add(yp, mul(mp(atomw[i]), y))
        h, w = sub(edges[i + 1], edges[i]), sub(lam, vals[i])
        sign = libmp.mpf_sign(w)
        if sign == 0:
            y = add(y, mul(yp, h))
        else:
            s = libmp.mpf_sqrt(libmp.mpf_abs(w), prec, "n")
            sh = mul(s, h)
            if sign > 0:
                if libmp.mpf_cmp(sh, pi) >= 0:
                    return False
                c, sn = libmp.mpf_cos_sin(sh, prec, "n")
                y, yp = add(mul(y, c), mul(yp, div(sn, s))), sub(mul(yp, c), mul(y, mul(s, sn)))
            else:
                # cosh and sinh of s*h, times 2*exp(s*h)
                e = libmp.mpf_exp(add(sh, sh), prec, "n")
                c, sn = add(e, one), sub(e, one)
                y, yp = add(mul(y, c), mul(yp, div(sn, s))), add(mul(y, mul(s, sn)), mul(yp, c))
        if libmp.mpf_sign(y) <= 0:
            return False
    return libmp.mpf_sign(add(yp, mul(mp(k1sq), y))) > 0


def _band(lam, tol):
    """Half the kernel's stopping width at lam, plus four ulps of lam."""
    return 0.5 * (tol + 1e-14 * abs(lam)) + 4.0 * math.ulp(lam)


def _within(args, lam, b):
    """Whether the first eigenvalue of args = (edges, vals, atomw, k0sq, k1sq) lies within b of lam."""
    return _mp_below(*args, lam - b) and not _mp_below(*args, lam + b)


def _certified(args, lam, tol):
    return _within(args, lam, _band(lam, tol))


def _assert_certified(args, lam, tol):
    assert _certified(args, lam, tol), (args, lam, tol)


def _certified_solve(args, tol):
    lam, _, status = K.lambda1_kernel(*args, tol)
    assert status == K.STATUS_OK, (args, tol, status)
    _assert_certified(args, lam, tol)
    return lam


def _logged_kernel(args, tol, angle=None, start=math.nan):
    """lambda1_kernel's result from start and its shots as (lam, below), the predicate of each.

    angle(args, lam), if given, replaces the mismatch and its slope that each
    shot returns.
    """
    log = []
    real = K.shoot_kernel

    def logged(*a):
        r, zc, f, slope, ok = real(*a)
        log.append((a[-1], zc == 0 and r > 0.0))
        if angle is not None:
            f, slope = angle(a, a[-1])
        return r, zc, f, slope, ok

    K.shoot_kernel = logged
    try:
        return K.lambda1_kernel(*args, tol, start), log
    finally:
        K.shoot_kernel = real


def _growth(log):
    """(n, lo, hi): the first n shots grow the bracket (lo, hi); shot n is the first strictly inside."""
    lo, hi = -math.inf, math.inf
    for n, (lam, below) in enumerate(log):
        if lo < lam < hi and math.isfinite(lo) and math.isfinite(hi):
            return n, lo, hi
        lo, hi = (max(lo, lam), hi) if below else (lo, min(hi, lam))
    return len(log), lo, hi


@pytest.mark.parametrize("pieces", [8, 16])
@pytest.mark.parametrize("concentrated", [False, True])
def test_replay_unit_mass_samples(pieces, concentrated):
    # 4 x 504 = 2016 samples over BC_GRID6 x both signs, concentrated ones
    # with all their mass in a window of width 1/pieces
    draw = concentrated_sample if concentrated else sample_unit_mass
    for j, (k0, k1) in enumerate(BC_GRID6):
        bc = RobinBC(k0, k1)
        for sign in (1, -1):
            for i in range(42):
                q = draw(pieces, 7919 * j + 31 * i + sign, sign)
                _certified_solve(compile_arrays(q, bc), 1e-10)


def test_replay_half_interval_problems():
    # the zero-potential problems left/right_half_eigenvalue pose for zeta
    # down to 1e-13, their tolerance down to its 1e-20 floor
    zetas = [1e-13, 1e-9, 1e-6, 1e-3] + list(np.linspace(0.01, 0.99, 50)) + [1.0 - 1e-6, 1.0 - 1e-13]
    for k0, k1 in BC_GRID6 + [(0.6, 0.7), (2.0, 3.0)]:
        for zeta in zetas:
            left, right = zeta, 1.0 - zeta
            _certified_solve((_EDGES0, _VALS0, _ATOMW0, left * k0, -0.5 * left), max(1e-13 * left**2, 1e-20))
            _certified_solve((_EDGES0, _VALS0, _ATOMW0, -0.5 * right, right * k1), max(1e-13 * right**2, 1e-20))


def _strength_map_atoms(mus, zetas):
    """(key, q, bc) for each in-domain point of the strength map: q is the atom whose first eigenvalue is mu."""
    for k0, k1 in BC_GRID6:
        bc = RobinBC(k0, k1)
        for mu in mus:
            for zeta in zetas:
                pt = delta_strength(mu, zeta, bc)
                if pt.in_domain:
                    yield (k0, k1, mu, zeta), Potential(atoms=(DeltaAtom(zeta, pt.value),)), bc


# a trial lam at the eigenvalue to the last bits lost the state past these
# atoms to cancellation, which ended the Illinois solver's solve
# (STATUS_NONFINITE); the Newton kernel shoots such a point again a quarter
# stopping width off
_NONFINITE_ATOMS = [(0.0, 2.0, -1e4, 0.37), (0.0, 2.0, -1e4, 0.5)]


def test_replay_strength_map_atoms():
    mus = [s * 10.0**e for e in np.linspace(-2.0, 4.0, 13) for s in (1.0, -1.0)]
    for key, q, bc in _strength_map_atoms(mus, (0.0, 0.1, 0.37, 0.5, 0.8, 1.0)):
        if key not in _NONFINITE_ATOMS:
            _certified_solve(compile_arrays(q, bc), 1e-10)


@pytest.mark.parametrize("k0, k1, mu, zeta", _NONFINITE_ATOMS)
def test_strength_map_atom_lost_to_cancellation(k0, k1, mu, zeta):
    bc = RobinBC(k0, k1)
    q = Potential(atoms=(DeltaAtom(zeta, delta_strength(mu, zeta, bc).value),))
    _certified_solve(compile_arrays(q, bc), 1e-10)


def test_reshot_of_a_vanished_state(monkeypatch):
    # the shot at lam = -2671.1979662845706, the eigenvalue to the last bits,
    # cancels to a zero state past the atom; the kernel shoots again a
    # quarter stopping width toward the bracket's middle, once
    mu, zeta, bc = -2671.197966284571, 0.518542003680756, RobinBC(0.45343828558878474, 1.0743245926269425)
    args = compile_arrays(Potential(atoms=(DeltaAtom(zeta, delta_strength(mu, zeta, bc).value),)), bc)
    real, lost = K.shoot_kernel, []

    def counted(*a):
        out = real(*a)
        if not out[4]:
            lost.append(a[-1])
        return out

    monkeypatch.setattr(K, "shoot_kernel", counted)
    lam = _certified_solve(args, 1e-10)
    assert lost == [-2671.1979662845706]
    assert abs(lam - mu) <= 1e-10 + 1e-13 * abs(mu)


def test_deep_atom_certified():
    # the plain bisection's shot at lam = -160000, the eigenvalue to the last
    # bit, cancelled to a zero state; the kernel does not shoot there.  The
    # isolated atom's eigenvalue is -(800/2)**2 up to terms of order exp(-400)
    args = compile_arrays(Potential(atoms=(DeltaAtom(0.5, -800.0),)), RobinBC(0.25, 0.5))
    assert abs(_certified_solve(args, 1e-10) + 160000.0) <= 1e-10 + 1e-13 * 160000.0


@st.composite
def mixed_potentials(draw):
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9, unique=True)))
    values = draw(st.lists(st.floats(-60.0, 60.0), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    atoms = draw(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-15.0, 15.0)), max_size=3, unique_by=lambda a: a[0])
    )
    segs = tuple(Segment(l, r, v) for l, r, v in zip(cuts, cuts[1:], values) if r > l)
    return Potential(segments=segs, atoms=tuple(DeltaAtom(z, w) for z, w in atoms))


# two wells, the atoms, under a barrier: the forward shot amplifies its
# rounding through the barrier, so that near the eigenvalue its float
# predicate can be wrong (ROADMAP item 5)
_DOUBLE_WELL = Potential(
    segments=(Segment(0.0, 1.0, 20.0),), atoms=(DeltaAtom(0.05, -15.0), DeltaAtom(0.95, -15.0))
)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the forward shot's rounding grows through the barrier")
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_double_well_certified(tol):
    _certified_solve(compile_arrays(_DOUBLE_WELL, RobinBC(0.0, 0.0)), tol)


def _float_below(args, lam):
    """The kernel's predicate at lam, as its float shot evaluates it."""
    r, zc, _, _, ok = K.shoot_kernel(*args, lam)
    return bool(ok) and zc == 0 and r > 0.0


@settings(max_examples=150, deadline=None)
@given(
    q=mixed_potentials(),
    bc=st.sampled_from(BC_GRID6),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
@example(
    q=Potential(
        segments=(Segment(0.0, 0.875, 36.0),),
        atoms=(DeltaAtom(0.0, -1.0), DeltaAtom(0.015625, -5.0), DeltaAtom(0.875, -5.0)),
    ),
    bc=(0.0, 0.0),
    tol=1e-13,
)
def test_replay_mixed_sign_potentials(q, bc, tol):
    # certified, unless the float predicate is wrong near lam, as on the
    # double wells of test_double_well_certified; the example is one.  Then
    # lambda1 must lie within b of the farthest probe lam +- k*b, k <= 256, at
    # which the float predicate disagrees with the exact one: the kernel then
    # misses only by the reach of its predicate's rounding
    args = compile_arrays(q, RobinBC(*bc))
    lam, _, status = K.lambda1_kernel(*args, tol)
    assert status == K.STATUS_OK, (args, tol)
    if _certified(args, lam, tol):
        return
    b = _band(lam, tol)
    probes = [lam + k * b for k in range(-256, 257) if k]
    d = max((abs(x - lam) for x in probes if _float_below(args, x) != _mp_below(*args, x)), default=0.0)
    assert _within(args, lam, b + d), (args, lam, tol, d)


def test_shot_budget_per_solve(monkeypatch):
    # the module-global name is the hook perfbench/tracing.py counts shots by
    shots = []
    real = K.shoot_kernel

    def counted(*args):
        shots[-1] += 1
        # the cell tables reach the kernel as lists of Python floats, which
        # it reads without numpy's scalar overhead
        for table in args[:3]:
            assert type(table) is list and all(type(x) is float for x in table)
        return real(*args)

    lam0 = {bc: _eig0(*bc) for bc in BC_GRID6}
    monkeypatch.setattr(K, "shoot_kernel", counted)
    started = []
    for i in range(200):
        # as check_bounds draws: every pair, both signs, --pieces-max 8 and 16
        k0, k1 = BC_GRID6[i % 6]
        tag = i // 6 % 2
        pieces_max = 8 if i // 12 % 2 == 0 else 16
        _, _, *block, (start,) = _lanes(20260809, [(tag, i, i + 1)], pieces_max, k0, lam0[k0, k1])
        (tables,) = _row_tables(*block)
        shots.append(0)
        assert math.isfinite(lambda1_value(regenerate(20260809, tag, i, pieces_max), RobinBC(k0, k1)))
        # and as check_bounds solves, from the first-order start
        shots.append(0)
        assert math.isfinite(_solve_arrays(*tables, k0, k1, 1e-10, start)[0])
        started.append(shots.pop())
    print(f"shots per solve: mean {np.mean(shots):.2f}, max {max(shots)}")
    print(f"from the first-order start: mean {np.mean(started):.2f}, max {max(started)}")
    # the kernel takes no shot at its result, and from the Rayleigh bound
    # needs one to certify each side.  The mean measured 5.6, at most 8 (the
    # Illinois step's 9.3, 10.3 with a final shot at the result); the plain
    # bisection needs ~40, its replay behind an Illinois estimate 14.9.  From
    # the first-order start the mean measured 4.4, at most 5
    assert min(shots) >= 2
    assert np.mean(shots) <= 5.9
    assert np.mean(started) <= 4.7 and max(started) <= 6


@pytest.mark.parametrize("off", [3.0, -3.0, 20.0, -20.0, None])
def test_certify_corrects_a_wrong_estimate(off):
    # every shot returns the mismatch and its slope at lam + off stopping
    # widths (None: a constant, useless mismatch of slope 1), so each Newton
    # step aims off the eigenvalue; the predicate, which certifies the bracket
    # ends, must still
    # give a certified eigenvalue, and the ITP clamp must hold the shots inside
    # the first bracket to three more than bisection from it
    real = K.shoot_kernel

    def wrong_angle(a, lam):
        return (0.0, 1.0) if off is None else real(*a[:-1], lam + off * (1e-10 + 1e-14 * abs(lam)))[2:4]

    for j, (k0, k1) in enumerate(BC_GRID6):
        for sign in (1, -1):
            for i in range(4):
                draw = concentrated_sample if i % 2 == 1 else sample_unit_mass
                q = draw(8, 7919 * j + 31 * i + sign, sign)
                args = compile_arrays(q, RobinBC(k0, k1))
                (lam, _, status), log = _logged_kernel(args, 1e-10, wrong_angle)
                assert status == K.STATUS_OK
                _assert_certified(args, lam, 1e-10)
                n, lo, hi = _growth(log)
                width, stop, halvings = hi - lo, 1e-10 + 1e-14 * max(lo, -hi, 0.0), 0
                while width > stop:
                    width, halvings = 0.5 * width, halvings + 1
                assert len(log) - n <= halvings + 3, (len(log) - n, halvings)


def test_search_up_from_a_start_below():
    # the first-order start lam0 +- 1 is exact on the constant potentials
    # +-1, the concentrated samples of one piece, so rounding puts the first
    # shot below lambda1 at some pairs; the one-sided search then steps up
    # toward the Rayleigh bound.  lam0 is within 1e-12 of its eigenvalue, so
    # starts that far off each side of it are also such starts, and the low
    # ones always lie below
    ups = 0
    for k0, k1 in BC_GRID6:
        lam0 = _eig0(k0, k1)
        for v in (1.0, -1.0):
            args = compile_arrays(Potential(segments=(Segment(0.0, 1.0, v),)), RobinBC(k0, k1))
            for d in (-1e-12, 0.0, 1e-12):
                (lam, _, status), log = _logged_kernel(args, 1e-10, start=lam0 + v + d)
                assert status == K.STATUS_OK
                _assert_certified(args, lam, 1e-10)
                assert len(log) <= 3, (k0, k1, v, d, log)
                assert log[0][1] or d >= 0.0, (k0, k1, v, log)
                ups += log[0][1]
    # measured 2 of 12 from lam0 itself, 12 of 12 from 1e-12 below and 0 of
    # 12 from 1e-12 above
    assert ups >= 12
    # a sample, from starts forced below lambda1: a stopping width to 100
    args = compile_arrays(sample_unit_mass(8, 7919, 1), RobinBC(0.25, 0.5))
    lam1 = _certified_solve(args, 1e-10)
    for off in (1e-10, 1e-6, 1e-3, 1.0, 100.0):
        (lam, _, status), log = _logged_kernel(args, 1e-10, start=lam1 - off)
        assert status == K.STATUS_OK and log[0][1]
        _assert_certified(args, lam, 1e-10)
        assert len(log) <= 8, (off, log)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13, 1e-30])
def test_zero_potential_secular_matches_mpmath(tol):
    # the zero potential at raw coefficients, as the half-interval problems and
    # inf_plus pose it, including the rescaled ones at zeta = 5e-4 and 1 - 1e-6
    coeffs = [(k0, k1) for k0, k1 in BC_GRID6] + [(k0, k1 + 1.0) for k0, k1 in BC_GRID6]
    coeffs += [(0.25, 1.5), (-0.5, 0.5), (3.0, 100.0)]
    coeffs += [(5e-4 * 0.25, -0.5 * 5e-4), (-0.5e-6, 1e-6 * 100.0), (2.0, -0.5)]
    for k0, k1 in coeffs:
        _certified_solve((_EDGES0, _VALS0, _ATOMW0, k0, k1), tol)


_SHIFTED_K0SQ = st.one_of(st.just(0.0), st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0**e))
_COEFF = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(_COEFF, _SHIFTED_K0SQ.map(lambda k0sq: k0sq - 1.0)), b=_COEFF)
# where the angle form atan2(s, a) + s < atan2(s, -b) put lambda1 = 4.024e-11 at 7.9e-14
@example(a=1.341025816518489e-11 - 1.0, b=8.104573753224621e124)
@example(a=-1.0, b=0.0)
@example(a=-0.5, b=1.0)  # lambda1 = 0 exactly
@example(a=0.0, b=0.0)
@example(a=1e300, b=1e300)
@example(a=1e-3 * 0.25, b=-0.5e-3)  # left_half_eigenvalue's problem at zeta = 1e-3, k0sq = 1/4
def test_zero_potential_closed_form_matches_mpmath(a, b):
    # _eig0, the closed-form predicate bisected, against the exact shot
    for tol in (1e-10, 1e-12):
        lam = _eig0(a, b, tol)
        assert _within((_EDGES0, _VALS0, _ATOMW0, a, b), lam, tol + 1e-14 * abs(lam)), (a, b, tol, lam)


@pytest.mark.parametrize(
    "side, zeta, bc",
    [
        ("left", 5e-4, RobinBC(0.25, 0.5)),
        ("left", 1e-3, RobinBC(2.0, 3.0)),
        ("right", 1.0 - 1e-6, RobinBC(3.0, 100.0)),
    ],
)
def test_half_eigenvalue_below_float_spacing_tolerance(side, zeta, bc):
    # their rescaled tolerance lies below the float spacing of the rescaled
    # eigenvalue here, where an absolute stop stalls
    if side == "left":
        got, length, k0, k1 = left_half_eigenvalue(zeta, bc), zeta, zeta * bc.k0sq, -0.5 * zeta
    else:
        length = 1.0 - zeta
        got, k0, k1 = right_half_eigenvalue(zeta, bc), -0.5 * length, length * bc.k1sq
    _assert_certified((_EDGES0, _VALS0, _ATOMW0, k0, k1), got * length**2, _MU_TOL * length**2)


def test_strength_map_atoms_match_mpmath():
    for _, q, bc in _strength_map_atoms((-100.0, -10.0, -0.3, 0.0, 0.7, 5.0, 30.0), (0.1, 0.37, 0.5, 0.8)):
        for tol in (1e-10, 1e-13):
            _assert_certified(compile_arrays(q, bc), lambda1_value(q, bc, tol), tol)


def test_plateau_matches_mpmath():
    for k0, k1 in BC_GRID6 + [(0.1, 7.0), (2.0, 2.5)]:
        bc = RobinBC(k0, k1)
        q = Potential(segments=sup_plus(bc).q_star.segments)
        for tol in (1e-10, 1e-13):
            _assert_certified(compile_arrays(q, bc), lambda1_value(q, bc, tol), tol)


@pytest.mark.parametrize("depth", [-1e6, -1e7])
def test_deep_square_well_matches_mpmath(depth):
    # ROADMAP's absolute-tolerance defect: the plain bisection stalled here.  The
    # well's ground state meets the boundaries only through terms of order
    # exp(-0.8*sqrt(|depth|)), so it is the even state of the square well of
    # half-width a = 0.1: k sin(k a) = sqrt(-lam) cos(k a), k^2 = lam - depth
    q, bc = Potential(segments=(Segment(0.4, 0.6, depth),)), RobinBC(0.25, 0.5)
    lam = lambda1_value(q, bc, 1e-10)
    _assert_certified(compile_arrays(q, bc), lam, 1e-10)

    def even_state(x):
        k = mpmath.sqrt(mpmath.mpf(x) - depth)
        return k * mpmath.sin(k / 10) - mpmath.sqrt(-mpmath.mpf(x)) * mpmath.cos(k / 10)

    b = _band(lam, 1e-10)
    with mpmath.workdps(30):
        assert even_state(lam - b) < 0 < even_state(lam + b), lam


def test_lambda1_growth_starts_from_known_bounds():
    # deep wells: the first shot at the Rayleigh bound fails, so it is hi,
    # and Newton steps down no further than the geometric search for lo
    # would; the Illinois solver took 7 and 4 growth shots here, as Newton
    # does.  The plain solver grew hi from lo + 1 by doubling: 20 and 28
    weight = delta_strength(-5623.4, 0.1, RobinBC(0, 0)).value
    cases = [
        (Potential(atoms=(DeltaAtom(0.1, weight),)), RobinBC(0, 0), 7),
        (Potential(segments=(Segment(0.4, 0.6, -1e7),)), RobinBC(0.25, 0.5), 4),
    ]
    for q, bc, shots in cases:
        (_, _, status), log = _logged_kernel(compile_arrays(q, bc), 1e-10)
        assert status == K.STATUS_OK
        assert _growth(log)[0] <= shots

"""lambda1_kernel against a replay of the plain bracket-plus-bisection solver.

The kernel skips the bisection shots whose outcome its Illinois step and
certified window already fix, and must return exactly the tuple the plain
bisection returns.  ``_bisection_kernel`` is that plain solver, kept here as
the oracle; both shoot through ``robinsl._kernels.shoot_kernel``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robinsl._kernels as K
from robinsl import JIT_ENABLED, DeltaAtom, Potential, RobinBC, Segment, delta_strength
from robinsl._rng import SplitMix64, derive_seed
from robinsl.eigensolver import _effective_arrays, lambda1_value
from robinsl.extrema import _ATOMW0, _EDGES0, _VALS0
from robinsl.verify import _draw, sample_unit_mass

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]


def _bisection_kernel(edges, vals, atomw, k0sq, k1sq, tol):
    def shoot(lam):
        r, zc, _, ok = K.shoot_kernel(edges, vals, atomw, k0sq, k1sq, lam)
        return r, zc, ok

    failed = (0.0, 0.0, 0.0, 0, K.STATUS_NONFINITE)
    total = 0.0
    for i in range(len(vals)):
        total += vals[i] * (edges[i + 1] - edges[i])
    for i in range(len(atomw)):
        total += atomw[i]
    lo = min(-abs(total), 0.0)
    for _ in range(200):
        r, zc, ok = shoot(lo)
        if not ok:
            return failed
        if zc == 0 and r > 0.0:
            break
        lo = 2.0 * lo - 1.0
    else:
        return 0.0, 0.0, 0.0, 0, K.STATUS_TOL
    hi = lo + 1.0
    for _ in range(200):
        r, zc, ok = shoot(hi)
        if not ok:
            return failed
        if zc >= 1 or r < 0.0:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        return 0.0, 0.0, 0.0, 0, K.STATUS_TOL
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid <= lo or mid >= hi:
            break
        r, zc, ok = shoot(mid)
        if not ok:
            return failed
        if zc == 0 and r > 0.0:
            lo = mid
        else:
            hi = mid
    width, lam = hi - lo, 0.5 * (lo + hi)
    r, zc, ok = shoot(lam)
    if not ok:
        return failed
    return lam, width, r, zc, K.STATUS_OK if width <= tol else K.STATUS_TOL


def _replay(edges, vals, atomw, k0sq, k1sq, tol):
    want = _bisection_kernel(edges, vals, atomw, k0sq, k1sq, tol)
    got = K.lambda1_kernel(edges, vals, atomw, k0sq, k1sq, tol)
    assert got == want, (k0sq, k1sq, tol)
    return got


def _replay_potential(q, bc, tol=1e-10):
    return _replay(*_effective_arrays(q, bc), tol)


@pytest.mark.parametrize("pieces", [8, 16])
@pytest.mark.parametrize("concentrated", [False, True])
def test_replay_unit_mass_samples(pieces, concentrated):
    # 4 x 504 = 2016 samples over BC_GRID6 x both signs
    for j, (k0, k1) in enumerate(BC_GRID6):
        bc = RobinBC(k0, k1)
        for sign in (1, -1):
            for i in range(42):
                q = sample_unit_mass(pieces, 7919 * j + 31 * i + sign, sign, concentrated)
                assert _replay_potential(q, bc)[4] == K.STATUS_OK


def test_replay_half_interval_problems():
    # the zero-potential problems left/right_half_eigenvalue pose, their
    # tolerance down to its 1e-20 floor (inf_minus probes zeta to 1e-13)
    zetas = [1e-13, 1e-9, 1e-6, 1e-3] + list(np.linspace(0.01, 0.99, 50)) + [1.0 - 1e-6, 1.0 - 1e-13]
    for k0, k1 in BC_GRID6 + [(0.6, 0.7), (2.0, 3.0)]:
        for zeta in zetas:
            _replay(_EDGES0, _VALS0, _ATOMW0, zeta * k0, -0.5 * zeta, max(1e-13 * zeta**2, 1e-20))
            length = 1.0 - zeta
            _replay(_EDGES0, _VALS0, _ATOMW0, -0.5 * length, length * k1, max(1e-13 * length**2, 1e-20))


def test_replay_strength_map_atoms():
    for k0, k1 in BC_GRID6:
        bc = RobinBC(k0, k1)
        for mu in [s * 10.0**e for e in np.linspace(-2.0, 4.0, 13) for s in (1.0, -1.0)]:
            for zeta in (0.0, 0.1, 0.37, 0.5, 0.8, 1.0):
                pt = delta_strength(mu, zeta, bc)
                if pt.in_domain:
                    _replay_potential(Potential(atoms=(DeltaAtom(zeta, pt.value),)), bc)


def test_replay_known_failures_keep_their_status():
    bc = RobinBC(0.25, 0.5)
    deep_atom = Potential(atoms=(DeltaAtom(0.5, -800.0),))
    assert _replay_potential(deep_atom, bc)[4] == K.STATUS_NONFINITE
    deep_well = Potential(segments=(Segment(0.4, 0.6, -1e6),))
    assert _replay_potential(deep_well, bc)[4] == K.STATUS_TOL


@st.composite
def mixed_potentials(draw):
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9, unique=True)))
    values = draw(st.lists(st.floats(-60.0, 60.0), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    atoms = draw(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-15.0, 15.0)), max_size=3, unique_by=lambda a: a[0])
    )
    segs = tuple(Segment(l, r, v) for l, r, v in zip(cuts, cuts[1:], values) if r > l)
    return Potential(segments=segs, atoms=tuple(DeltaAtom(z, w) for z, w in atoms))


@settings(max_examples=150, deadline=None)
@given(
    q=mixed_potentials(),
    bc=st.sampled_from(BC_GRID6),
    tol=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_replay_mixed_sign_potentials(q, bc, tol):
    _replay_potential(q, RobinBC(*bc), tol)


@pytest.mark.skipif(JIT_ENABLED, reason="compiled kernels call shoot_kernel without the module lookup")
def test_shot_budget_per_solve(monkeypatch):
    # the module-global name is the hook perfbench/tracing.py counts shots by
    shots = []
    real = K.shoot_kernel

    def counted(*args):
        shots[-1] += 1
        # the cell tables reach the kernel as lists of Python floats, which
        # the pure path reads without numpy's scalar overhead
        for table in args[:3]:
            assert type(table) is list and all(type(x) is float for x in table)
        return real(*args)

    monkeypatch.setattr(K, "shoot_kernel", counted)
    for i in range(200):
        # as check_bounds draws: every pair, both signs, --pieces-max 8 and 16
        k0, k1 = BC_GRID6[i % 6]
        sign, tag = (1, 0) if i // 6 % 2 == 0 else (-1, 1)
        pieces_max = 8 if i // 12 % 2 == 0 else 16
        rng = SplitMix64(derive_seed(20260809, tag, i))
        q = _draw(rng, 1 + rng.next_u64() % pieces_max, sign, False)
        shots.append(0)
        assert math.isfinite(lambda1_value(q, RobinBC(k0, k1)))
    print(f"shots per solve: mean {np.mean(shots):.1f}, max {max(shots)}")
    # two growth shots and the final one at least; the plain bisection needs ~40
    assert min(shots) >= 3
    assert np.mean(shots) <= 20.0


@pytest.mark.skipif(JIT_ENABLED, reason="compiled kernels call _angle_root without the module lookup")
@pytest.mark.parametrize("off", [3.0, -3.0, 20.0, -20.0, None])
def test_certify_corrects_a_wrong_estimate(monkeypatch, off):
    # _angle_root is replaced by an estimate `off` margins from the eigenvalue
    # (None: a failed Illinois phase); _certify must widen its window until it
    # is sound, so the result stays the plain bisection's, in fewer shots
    real_shoot = K.shoot_kernel
    shots = [0]
    want = None

    def counted(*args):
        shots[0] += 1
        return real_shoot(*args)

    def wrong_root(edges, vals, atomw, k0sq, k1sq, tol, lo, flo, hi, fhi):
        if off is None:
            return 0.5 * (lo + hi), False
        return want[0] + off * K._margin(want[0], tol), True

    monkeypatch.setattr(K, "shoot_kernel", counted)
    monkeypatch.setattr(K, "_angle_root", wrong_root)
    for j, (k0, k1) in enumerate(BC_GRID6):
        for sign in (1, -1):
            for i in range(4):
                q = sample_unit_mass(8, 7919 * j + 31 * i + sign, sign, i % 2 == 1)
                args = _effective_arrays(q, RobinBC(k0, k1)) + (1e-10,)
                shots[0] = 0
                want = _bisection_kernel(*args)
                plain_shots = shots[0]
                shots[0] = 0
                assert K.lambda1_kernel(*args) == want
                if off is None:
                    assert shots[0] == plain_shots
                else:
                    assert shots[0] < plain_shots

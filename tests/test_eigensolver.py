import math
import random

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import robinsl._kernels as K
from robinsl import (
    DeltaAtom,
    NoConvergence,
    NonFiniteState,
    Potential,
    RobinBC,
    Segment,
    ToleranceNotReached,
    delta_strength,
    fd_lambda1,
    lambda1,
    lambda1_value,
)
from robinsl._kernels import STATUS_NONFINITE, lambda1_kernel, propagate_step, shoot_kernel
from robinsl.eigensolver import _sample_eigenfunction, compile_arrays
from oracles import delta_approx, quadratic_form

BC00 = RobinBC(0.0, 0.0)
BCHH = RobinBC(0.5, 0.5)

# root of tan(r) = 1/r, squared: first eigenvalue of the unit mass at x=1
# under Neumann-left; 30-digit bisection gives
LAM_DELTA1 = 0.740173884394967


def _series_cosh_sinh(x, terms=30):
    # independent power-series oracle
    c = s = 0.0
    t = 1.0
    for k in range(terms):
        if k % 2 == 0:
            c += t
        else:
            s += t
        t *= x / (k + 1)
    return c, s


def test_propagate_cosine_half_turn():
    # the kernel takes w = lam - q for the cell
    y, yp, nz, _ = propagate_step(1.0, 0.0, math.pi**2 - 0.0, 1.0)
    assert y == pytest.approx(-1.0, abs=1e-12)
    assert yp == pytest.approx(0.0, abs=1e-12)
    assert nz == 1


def test_propagate_flat_when_q_equals_lambda():
    y, yp, nz, _ = propagate_step(1.0, 0.0, 1.0 - 1.0, 1.0)
    assert (y, yp, nz) == (1.0, 0.0, 0)


def test_propagate_hyperbolic_against_series():
    c, s = _series_cosh_sinh(1.0)
    y, yp, nz, _ = propagate_step(1.0, 0.0, -1.0 - 0.0, 1.0)
    assert y == pytest.approx(c, rel=1e-14)
    assert yp == pytest.approx(s, rel=1e-14)
    assert nz == 0


def test_propagate_zero_counts_multiple():
    # cos(3*pi*x) crosses zero 3 times on (0, 1)
    _, _, nz, _ = propagate_step(1.0, 0.0, (3 * math.pi) ** 2 - 0.0, 1.0)
    assert nz == 3


def test_propagate_hyperbolic_single_crossing():
    _, _, nz, _ = propagate_step(1.0, -2.0, -1.0 - 0.0, 1.0)
    assert nz == 1


def test_shoot_constant_exact():
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    res, zc, _, _, ok = shoot_kernel(*compile_arrays(q, BC00), 1.0)
    assert ok and res == 0.0 and zc == 0
    res, zc, _, _, ok = shoot_kernel(*compile_arrays(Potential(), BC00), 0.0)
    assert ok and res == 0.0 and zc == 0


def test_shoot_interior_atom_known_eigenvalue():
    # -delta_{1/2} with both coefficients 1/2 has eigenfunction exp(|x-1/2|-ish)
    q = Potential(atoms=(DeltaAtom(0.5, -1.0),))
    res, zc, _, _, ok = shoot_kernel(*compile_arrays(q, BCHH), -0.25)
    assert ok and abs(res) < 1e-12
    assert zc == 0


def test_endpoint_masses_are_the_shifted_pair():
    # a mass at 0 or 1, or within MERGE_TOL of it, shifts the coefficient
    # beside it by its weight: the shooting entries give the bits of the
    # shifted pair, and fd_lambda1 and quadratic_form, which sum it in
    # another order, agree to rounding
    for lam in (-3.0, 0.0, 0.5, LAM_DELTA1, 7.0):
        got = shoot_kernel(*compile_arrays(Potential(atoms=(DeltaAtom(1.0, 1.0),)), BC00), lam)
        assert got[4] and got == shoot_kernel(*compile_arrays(Potential(), RobinBC(0, 1)), lam)
    base = Potential(segments=(Segment(0.1, 0.5, 2.0),), atoms=(DeltaAtom(0.6, -1.0),))
    bc = RobinBC(0.25, 2.0)
    ends = [(0.0, None), (1e-13, None), (None, 1.0), (None, 1.0 - 1e-13), (0.0, 1.0), (1e-13, 1.0 - 1e-13)]
    for left, right in ends:
        masses = [DeltaAtom(z, w) for z, w in ((left, 0.5), (right, -0.5)) if z is not None]
        q = Potential(segments=base.segments, atoms=(*base.atoms, *masses))
        shifted = RobinBC(bc.k0sq + 0.5 * (left is not None), bc.k1sq - 0.5 * (right is not None))
        for lam in (-3.0, 0.5, 7.0, 40.0):
            got = shoot_kernel(*compile_arrays(q, bc), lam)
            assert got[4] and got == shoot_kernel(*compile_arrays(base, shifted), lam)
        assert lambda1_value(q, bc).hex() == lambda1_value(base, shifted).hex()
        got, want = lambda1(q, bc), lambda1(base, shifted)
        assert (got.lambda1, got.residual, got.bracket_width) == (want.lambda1, want.residual, want.bracket_width)
        assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()
        assert fd_lambda1(q, bc, 400) == pytest.approx(fd_lambda1(base, shifted, 400), rel=1e-12, abs=0.0)
        lam = got.lambda1 - 0.5
        energy = quadratic_form(base, shifted, lam, got.xs, got.ys)
        assert quadratic_form(q, bc, lam, got.xs, got.ys) == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_shoot_survives_large_negative_lambda():
    q = Potential(segments=(Segment(0.0, 1.0, 5.0),))
    res, zc, _, _, ok = shoot_kernel(*compile_arrays(q, BC00), -1.0e6)
    assert ok and math.isfinite(res)
    assert zc == 0 and res > 0


def test_lambda1_constant_potential():
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    res = lambda1(q, BC00, 1e-10)
    assert res.lambda1 == pytest.approx(1.0, abs=1e-9)
    assert res.bracket_width <= 1e-10
    assert res.ys.min() > 0.0
    # constant eigenfunction
    assert res.ys.max() - res.ys.min() < 1e-9


def test_lambda1_endpoint_delta_value():
    q = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    res = lambda1(q, BC00, 1e-8)
    assert res.lambda1 == pytest.approx(LAM_DELTA1, abs=1e-6)


def test_lambda1_negative_constant():
    q = Potential(segments=(Segment(0.0, 1.0, -1.0),))
    assert lambda1_value(q, BC00, 1e-10) == pytest.approx(-1.0, abs=1e-9)


def test_lambda1_eigenfunction_grid_contains_breakpoints():
    q = Potential(segments=(Segment(0.2, 0.6, 2.0),), atoms=(DeltaAtom(0.7, -0.5),))
    res = lambda1(q, RobinBC(0.25, 0.5))
    assert len(res.xs) >= 1001
    for z in (0.2, 0.6, 0.7):
        assert np.min(np.abs(res.xs - z)) < 1e-12
    assert res.ys.min() > 0.0


def test_lambda1_tolerance_below_float_spacing():
    # tol 1e-30 is below the float spacing at lam = 1; the 1e-14 relative
    # term of the stopping width keeps it reachable
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    assert abs(lambda1_value(q, BC00, 1e-30) - 1.0) <= 1e-14


def _eigen_profile_style(i):
    """(q, bc) like `robinsl eigen`'s inputs: a strength-map atom or a mixed-sign potential.

    No atom sits at an endpoint, so `shoot_kernel` sees the potential that `lambda1`
    solves.
    """
    rng = random.Random(f"eigen-style:{i}")
    k0 = rng.uniform(0.0, 2.0)
    bc = RobinBC(k0, k0 + rng.uniform(0.0, 2.0))
    if i % 2 == 0:
        zeta = rng.uniform(0.02, 0.98)
        mu = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0)
        pt = delta_strength(mu, zeta, bc)
        if pt.in_domain:
            return Potential(atoms=(DeltaAtom(zeta, pt.value),)), bc
    cuts = sorted(rng.sample(range(1, 2000), 2 * rng.randint(2, 8)))
    sign = rng.choice((1.0, -1.0))
    segs = tuple(
        Segment(a / 2000, b / 2000, sign * (-1) ** j * rng.uniform(0.5, 10.0))
        for j, (a, b) in enumerate(zip(cuts[::2], cuts[1::2]))
    )
    spots = rng.sample(range(1, 2000), rng.randint(1, 3))
    atoms = tuple(DeltaAtom(p / 2000, rng.uniform(-2.0, 2.0)) for p in spots)
    return Potential(segments=segs, atoms=atoms), bc


@pytest.mark.parametrize("i", range(40))
def test_lambda1_residual_is_the_shot_at_lambda1(i):
    # the sampler is the one shot at lambda1: the same jumps, steps and
    # max-norm rescales as shoot_kernel, so the same residual to the last bit
    q, bc = _eigen_profile_style(i)
    res = lambda1(q, bc)
    residual, _, _, _, ok = shoot_kernel(*compile_arrays(q, bc), res.lambda1)
    assert ok and res.residual == residual


@pytest.mark.parametrize(
    "mu, zeta, bc",
    [
        (-4216.192476949496, 0.6987067186686384, RobinBC(0.18058537291097854, 0.45612854219392807)),
        (-6176.052032719231, 0.43940340376733084, RobinBC(0.23595704801382023, 0.8757949522477739)),
    ],
)
def test_value_survives_a_cancelling_shot_at_the_eigenvalue(mu, zeta, bc):
    # the shot at the eigenvalue, mu to the last bit, cancels past the deep
    # atom to an exactly zero state, which the kernel flags as not ok;
    # two-sided shooting would mend it
    q = Potential(atoms=(DeltaAtom(zeta, delta_strength(mu, zeta, bc).value),))
    assert shoot_kernel(*compile_arrays(q, bc), mu)[4] is False
    # the root-find does not rest on that shot, so the value returns
    assert abs(lambda1_value(q, bc) - mu) <= 1e-10 + 1e-13 * abs(mu)


# the shot at lam = -2671.1979662845706, this atom's eigenvalue to the last
# bits, cancels to a zero state past the atom, and the kernel shoots again
# (test_solver_replay::test_reshot_of_a_vanished_state)
RESHOT = (-2671.197966284571, 0.518542003680756, RobinBC(0.45343828558878474, 1.0743245926269425))


def _strength_atom(mu, zeta, bc):
    return Potential(atoms=(DeltaAtom(zeta, delta_strength(mu, zeta, bc).value),))


def test_overflowing_shot_raises_non_finite_state():
    # the search for lo steps from the Rayleigh bound -1e308 to -inf, whose
    # shot fails; with lo still open there is no bracket to shoot again inside
    q = Potential(atoms=(DeltaAtom(0.5, -1e308),))
    with pytest.raises(NonFiniteState, match="^shooting state overflowed or vanished$"):
        lambda1_value(q, RobinBC(0.25, 0.5))


def test_overflowing_rayleigh_bound_raises_non_finite_state():
    # k0sq + k1sq + the integral of q overflows to inf, the first trial of a
    # solve with no start; its shot took math.cos(inf), a bare ValueError
    q = Potential(segments=(Segment(0.2, 0.6, 2.5),))
    with pytest.raises(NonFiniteState, match="^shooting state overflowed or vanished$"):
        lambda1_value(q, RobinBC(1e308, 1e308))
    assert lambda1_kernel([0.0, 0.2, 0.6, 1.0], [0.0, 2.5, 0.0], [0.0] * 4, 1e308, 1e308, 1e-10) == (
        0.0,
        0.0,
        STATUS_NONFINITE,
    )


def test_midpoint_overflow_raises_non_finite_state():
    # lambda1 ~ 1e308 brackets between finite floats whose midpoint, the
    # returned lam, overflows to inf; tol + 1e-14*inf passed the width test,
    # so lambda1_value returned inf.  1e300 still solves
    q = Potential(segments=(Segment(0.0, 1.0, 1e308),))
    with pytest.raises(NonFiniteState, match="^bracket midpoint overflowed: lam = inf$"):
        lambda1_value(q, RobinBC(0.25, 0.5))
    assert lambda1_value(Potential(segments=(Segment(0.0, 1.0, 1e300),)), RobinBC(0.25, 0.5)) == 1.0000000000000026e300


def test_bracket_that_never_closes_has_infinite_width():
    # lambda1 ~ -(1e200/2)**2 lies below the float range, so lo is never
    # found; the message names the open bracket, not a zero width
    q = Potential(atoms=(DeltaAtom(0.5, -1e200),))
    with pytest.raises(ToleranceNotReached, match="^root-find stalled at bracket width inf > "):
        lambda1_value(q, RobinBC(0.25, 0.5))


@pytest.mark.parametrize(
    "q, bc, value, message",
    [
        # a tall barrier: on [0, ~0.27] the eigenfunction is below e^-745 of
        # its maximum (Known defects); the hyperbolic cell guard raises
        (
            Potential(segments=(Segment(0.0, 0.5, 1e7),)),
            RobinBC(0.25, 0.5),
            11.758124928327916,
            "eigenfunction sampling overflowed",
        ),
        # the forward shot loses the decaying mode past a deep atom (item 5):
        # to a negative sample, to a state that cancels to zero at a cell end,
        # and, past cells that each grow less than the guard's e^690 but
        # together by e^2190, to samples none of which stays positive.  Which
        # one depends on lambda1's last bits
        (_strength_atom(*RESHOT), RESHOT[2], RESHOT[0], "sampled eigenfunction is not strictly positive"),
        (
            _strength_atom(-350524.45546035195, 0.7308832753598685, RobinBC(0.7836552326153898, 2.4246270564663535)),
            RobinBC(0.7836552326153898, 2.4246270564663535),
            -350524.45546035195,
            "shooting state overflowed or vanished",
        ),
        (
            Potential(
                segments=tuple(Segment(a, a + 0.2, 1e-12) for a in (0.2, 0.4, 0.6, 0.8)),
                atoms=(DeltaAtom(0.02, delta_strength(-5e6, 0.02, RobinBC(0.25, 0.5)).value),),
            ),
            RobinBC(0.25, 0.5),
            -5e6,
            "eigenfunction sampling overflowed",
        ),
    ],
)
def test_sampler_raises_non_finite_state(q, bc, value, message):
    # the value converges; only the sampled eigenfunction fails
    assert abs(lambda1_value(q, bc) - value) <= 1e-10 + 1e-13 * abs(value)
    with pytest.raises(NonFiniteState, match=f"^{message}$"):
        lambda1(q, bc)


# As w grows, DeltaAtom(0.5, w) and Segment(0, 0.5, w) pin y(1/2) = 0, and at
# RobinBC(0.25, 0.5) lambda1 tends to s**2 with tan(s/2) = -s/k0sq (the atom:
# the left half is the lower) or tan(s/2) = -s/k1sq (the segment; the right
# half); 30-digit mpmath roots, rounded
_PINNED = {"atom": 10.844725460113604, "segment": 11.771859163750689}


def _tall(kind, w):
    if kind == "atom":
        return Potential(atoms=(DeltaAtom(0.5, w),))
    return Potential(segments=(Segment(0.0, 0.5, w),))


@pytest.mark.parametrize("kind", ["atom", "segment"])
def test_huge_positive_potential_reaches_the_pinned_limit(kind):
    assert abs(lambda1_value(_tall(kind, 1e60), RobinBC(0.25, 0.5)) - _PINNED[kind]) <= 1e-9


def test_huge_positive_potentials_do_not_stall(monkeypatch):
    # the bracket [0, ~w] spans hundreds of decades, which 200 halvings could
    # not close from w = 1e80 up; bisecting it in log scale took 50-65 shots
    # for the atom and 17-33 for the segment
    real, shots = K.shoot_kernel, []

    def counted(*args):
        shots[-1] += 1
        return real(*args)

    monkeypatch.setattr(K, "shoot_kernel", counted)
    for w in (1e80, 1e200, 1e300):
        for kind in _PINNED:
            shots.append(0)
            assert abs(lambda1_value(_tall(kind, w), RobinBC(0.25, 0.5)) - _PINNED[kind]) <= 1e-9
            assert shots[-1] <= 80, (w, kind, shots[-1])


def test_quadratic_form_trivial_zero():
    xs = np.linspace(0.0, 1.0, 101)
    ys = np.ones_like(xs)
    assert quadratic_form(Potential(), BC00, 0.0, xs, ys) == pytest.approx(0.0, abs=1e-14)


def test_quadratic_form_atom_only():
    q = Potential(atoms=(DeltaAtom(0.5, -1.0),))
    xs = np.linspace(0.0, 1.0, 101)
    ys = np.ones_like(xs)
    assert quadratic_form(q, BC00, 0.0, xs, ys) == pytest.approx(-1.0, abs=1e-14)


def test_quadratic_form_vanishes_at_eigenpair():
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    res = lambda1(q, BC00, 1e-12)
    val = quadratic_form(q, BC00, res.lambda1, res.xs, res.ys)
    assert abs(val) < 1e-5


def test_quadratic_form_sign_flips_across_lambda1():
    q = Potential(segments=(Segment(0.1, 0.5, 2.0),), atoms=(DeltaAtom(0.6, -1.0),))
    bc = RobinBC(0.25, 0.5)
    res = lambda1(q, bc, 1e-12)
    assert quadratic_form(q, bc, res.lambda1, res.xs, res.ys) == pytest.approx(0.0, abs=1e-5)
    assert quadratic_form(q, bc, res.lambda1 + 0.1, res.xs, res.ys) < 0.0
    assert quadratic_form(q, bc, res.lambda1 - 0.1, res.xs, res.ys) > 0.0


def test_quadratic_form_grid_too_coarse():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="^quadratic_form needs at least 11 grid points$"):
        quadratic_form(Potential(), BC00, 0.0, xs, np.ones_like(xs))
    # a repeated x gave 2.0e-4 on the README's example, against -5.9e-8 on
    # the true grid, and no error
    q = Potential(segments=(Segment(0.1, 0.6, 3.0),), atoms=(DeltaAtom(0.7, -1.5),))
    bc = RobinBC(0.25, 0.5)
    res = lambda1(q, bc)
    xs = res.xs.copy()
    xs[900] = xs[899]
    with pytest.raises(ValueError, match="strictly increasing"):
        quadratic_form(q, bc, res.lambda1, xs, res.ys)


def test_quadratic_form_needs_every_breakpoint():
    # the atom at 0.123 falls between two grid points
    q = Potential(atoms=(DeltaAtom(0.123, 1.0),))
    xs = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="^grid must contain every breakpoint and atom position$"):
        quadratic_form(q, BC00, 0.0, xs, np.ones_like(xs))


def test_fd_neumann_laplacian():
    assert fd_lambda1(Potential(), BC00, 1000) == pytest.approx(0.0, abs=1e-8)


def test_fd_constant_shift():
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    assert fd_lambda1(q, BC00, 1000) == pytest.approx(1.0, abs=1e-6)


def test_fd_boundary_delta():
    q = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    assert fd_lambda1(q, BC00, 2000) == pytest.approx(LAM_DELTA1, abs=5e-4)


def test_fd_requires_fine_grid():
    with pytest.raises(ValueError):
        fd_lambda1(Potential(), BC00, 50)


def test_fd_lapack_failure_raises_no_convergence(monkeypatch):
    import scipy.linalg

    def fail(*args, **kwargs):
        raise LinAlgError("stebz (eigh_tridiagonal) did not converge (LAPACK info=1)")

    # fd_lambda1 imports eigh_tridiagonal from scipy.linalg when called
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(NoConvergence) as exc:
        fd_lambda1(Potential(), BC00, 100)
    assert isinstance(exc.value.__cause__, LinAlgError)


def test_oracle_agreement_random_sample():
    # small pre-check of the full 50-sample acceptance run; breakpoints sit on
    # the oracle grid so only the two solution methods are compared, not the
    # oracle's O(h) smearing of off-grid jumps
    rng = np.random.default_rng(7)
    bc = RobinBC(0.25, 0.5)
    for _ in range(8):
        nseg = int(rng.integers(1, 5))
        cuts = np.sort(rng.choice(np.arange(1, 2000), size=2 * nseg, replace=False)) / 2000.0
        segs = tuple(
            Segment(cuts[2 * i], cuts[2 * i + 1], rng.uniform(-10.0, 10.0))
            for i in range(nseg)
        )
        pos = int(rng.integers(1, 2000)) / 2000.0
        q = Potential(segments=segs, atoms=(DeltaAtom(pos, rng.uniform(-2.0, 2.0)),))
        a = lambda1_value(q, bc, 1e-12)
        b = fd_lambda1(q, bc, 2000)
        assert abs(a - b) <= 1e-3


@pytest.mark.parametrize("mu", [-10.0, -1e2, -1e3, -1e4])
def test_fd_large_n_strength_map(mu):
    # the strength-map atom has lambda1 = mu exactly; the oracle's O(h^2)
    # error must be small at n = 32000 and shrink ~16x from n = 8000
    bc = RobinBC(0.25, 0.5)
    q = Potential(atoms=(DeltaAtom(0.5, delta_strength(mu, 0.5, bc).value),))
    err_8k = abs(fd_lambda1(q, bc, 8000) - mu)
    err_32k = abs(fd_lambda1(q, bc, 32000) - mu)
    assert err_32k <= 1e-5 * abs(mu)
    assert err_8k >= 10.0 * err_32k


def test_monotone_in_delta_weight():
    zeta = 0.3
    bc = RobinBC(0.25, 0.5)
    vals = [
        lambda1_value(Potential(atoms=(DeltaAtom(zeta, a),)), bc, 1e-11)
        for a in (-3.0, -1.0, -0.25, 0.0, 0.25, 1.0)
    ]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_upper_bound_by_total_mass():
    bc = RobinBC(0.25, 0.5)
    for a in (-4.0, -1.0, 0.5, 2.0):
        for zeta in (0.0, 0.3, 1.0):
            q = Potential(atoms=(DeltaAtom(zeta, a),))
            lam = lambda1_value(q, bc, 1e-10)
            assert lam <= a + bc.k0sq + bc.k1sq + 1e-9


def test_continuity_under_box_approximation():
    # boxes shrinking onto the point mass: eigenvalues converge monotonically
    target = lambda1_value(Potential(atoms=(DeltaAtom(0.5, -1.0),)), BCHH, 1e-12)
    gaps = []
    for k in range(4, 13):
        qn = delta_approx(0.5, 2**k, -1.0)
        gaps.append(abs(lambda1_value(qn, BCHH, 1e-12) - target))
    assert gaps[-1] < 1e-4
    assert all(a > b for a, b in zip(gaps[-5:], gaps[-4:]))


def test_zero_count_matches_brute_force():
    # dense sign-change counting as the independent oracle
    from robinsl._kernels import propagate_step

    def brute(y0, yp0, w, h, n=40001):
        ts = np.linspace(0.0, h, n)
        if w > 0:
            s = math.sqrt(w)
            ys = y0 * np.cos(s * ts) + yp0 * np.sin(s * ts) / s
        elif w == 0:
            ys = y0 + yp0 * ts
        else:
            s = math.sqrt(-w)
            ys = y0 * np.cosh(s * ts) + yp0 * np.sinh(s * ts) / s
        inner = ys[1:-1][ys[1:-1] != 0]
        signs = np.sign(inner)
        return int(np.sum(signs[1:] != signs[:-1]))

    rng = np.random.default_rng(99)
    for _ in range(400):
        y0 = float(rng.normal()) or 1.0
        yp0 = float(rng.normal())
        w = float(rng.uniform(-100.0, 900.0))
        h = float(rng.uniform(0.01, 1.0))
        assert propagate_step(y0, yp0, w, h)[2] == brute(y0, yp0, w, h)


def test_quadratic_form_second_order_convergence():
    q = Potential(segments=(Segment(0.1, 0.5, 2.0),), atoms=(DeltaAtom(0.6, -1.0),))
    bc = RobinBC(0.25, 0.5)
    args = compile_arrays(q, bc)
    lam = lambda1_value(q, bc, 1e-13)
    errs = []
    for npts in (1001, 2001, 4001):
        xs = np.union1d(np.linspace(0.0, 1.0, npts), args[0])
        ys, _ = _sample_eigenfunction(*args, lam, xs)
        errs.append(abs(quadratic_form(q, bc, lam, xs, ys)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_fold_consistency_via_box_limit():
    # endpoint box potentials approach the folded endpoint-atom eigenvalue
    q_atom = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    target = lambda1_value(q_atom, BC00, 1e-12)
    assert target == pytest.approx(LAM_DELTA1, abs=1e-10)
    gaps = [
        abs(lambda1_value(delta_approx(1.0, 2**k, 1.0), BC00, 1e-12) - target)
        for k in range(4, 13)
    ]
    assert gaps[-1] < 1e-3
    assert all(a > b for a, b in zip(gaps[-5:], gaps[-4:]))


# lambda1_value (tol 1e-12) and fd_lambda1 (n = 400) of each potential with
# the effective coefficients (k0sq, k1sq), recorded when the pair could still
# be built as RobinBC(k0sq, k1sq) unvalidated; negative and out-of-order pairs
# are now said by endpoint masses
_EFFECTIVE_QS = {
    "zero": Potential(),
    "plateau": Potential(segments=(Segment(0.2, 0.7, 2.0),)),
    "well": Potential(segments=(Segment(0.0, 0.4, -3.0),), atoms=(DeltaAtom(0.6, 1.5),)),
}
_EFFECTIVE_BITS = [
    ((-0.5, 1.0), "zero", "-0x1.19799812dea11p-42", "0x1.57fc7aaf927b3p-35"),
    ((-0.5, 1.0), "plateau", "0x1.04eb717e78ffbp+0", "0x1.04eb7a3c2b29cp+0"),
    ((-0.5, 1.0), "well", "-0x1.fe018f83c0cc0p-1", "-0x1.fe01742225c76p-1"),
    ((1.0, 0.25), "zero", "0x1.0915a061c4730p+0", "0x1.0915a6affd945p+0"),
    ((1.0, 0.25), "plateau", "0x1.04f931d5b8d7ep+1", "0x1.04f9398f0b748p+1"),
    ((1.0, 0.25), "well", "0x1.3a9d47f70953ap+0", "0x1.3a9d8e8dc5a32p+0"),
    ((-2.0, -3.0), "zero", "-0x1.2c3db012d897fp+3", "-0x1.2c3cb95c3da96p+3"),
    ((-2.0, -3.0), "plateau", "-0x1.206b8b52c910ap+3", "-0x1.206a880638b28p+3"),
    ((-2.0, -3.0), "well", "-0x1.22b780f09db86p+3", "-0x1.22b6ae7e16b71p+3"),
    ((0.75, -0.4), "zero", "0x1.6eb0ef8b05b04p-5", "0x1.6eb0e93a8d2acp-5"),
    ((0.75, -0.4), "plateau", "0x1.e6650636e327ep-1", "0x1.e6651863bc51ap-1"),
    ((0.75, -0.4), "well", "0x1.740a09a84bb84p-2", "0x1.740aa5648867ep-2"),
    ((3.0, 1.0), "zero", "0x1.5247802a806d6p+1", "0x1.52478c0c01994p+1"),
    ((3.0, 1.0), "plateau", "0x1.dc3e3cc80f7a5p+1", "0x1.dc3e4cd8725bep+1"),
    ((3.0, 1.0), "well", "0x1.a5a361e315a3cp+1", "0x1.a5a39db124ae6p+1"),
    ((-0.25, 0.0), "zero", "-0x1.16d2ffe0afd5ep-2", "-0x1.16d2fcd554eecp-2"),
    ((-0.25, 0.0), "plateau", "0x1.66fea08d65d56p-1", "0x1.66feb35aaa4e7p-1"),
    ((-0.25, 0.0), "well", "-0x1.856b7c4854045p-1", "-0x1.856b556617a4cp-1"),
]


@pytest.mark.parametrize("pair, name, lam_hex, fd_hex", _EFFECTIVE_BITS)
def test_endpoint_masses_give_the_effective_pair_bits(pair, name, lam_hex, fd_hex):
    base = _EFFECTIVE_QS[name]
    q = Potential(segments=base.segments, atoms=(*base.atoms, DeltaAtom(0.0, pair[0]), DeltaAtom(1.0, pair[1])))
    assert lambda1_value(q, BC00, 1e-12).hex() == lam_hex
    assert fd_lambda1(q, BC00, 400).hex() == fd_hex

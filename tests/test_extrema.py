import math

import numpy as np
import pytest

import robinsl._kernels as K
import robinsl.eigensolver as ES
import robinsl.extrema as ex
from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    all_extrema,
    delta_strength,
    inf_minus,
    inf_plus,
    lambda1,
    lambda1_value,
    sup_minus,
    sup_plus,
)
from robinsl.extrema import ROOT_TOL, left_half_eigenvalue, right_half_eigenvalue
from oracles import total_integral
from test_crossing_replay import _edge_points
from test_solver_replay import _ATOMW0, _EDGES0, _VALS0, _assert_certified

BC_GRID = [
    RobinBC(0.0, 0.0),
    RobinBC(0.25, 0.5),
    RobinBC(0.5, 0.5),
    RobinBC(1.0, 1.0),
    RobinBC(0.0, 2.0),
    RobinBC(1.0, 4.0),
]

LAM_DELTA1 = 0.740173884394967  # root of tan(r) = 1/r, squared


def test_sup_plus_neumann_is_one():
    rep = sup_plus(RobinBC(0.0, 0.0))
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.q_star.segments[0].left == pytest.approx(0.0, abs=1e-12)
    assert rep.q_star.segments[0].right == pytest.approx(1.0, abs=1e-12)


def test_sup_plus_root_equation_and_mass():
    for bc in BC_GRID:
        rep = sup_plus(bc)
        mu = rep.value
        s = math.sqrt(mu)
        lhs = 1.0 - (math.atan2(bc.k0sq, s) + math.atan2(bc.k1sq, s)) / s
        assert lhs == pytest.approx(1.0 / mu, abs=1e-10)
        assert total_integral(rep.q_star) == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.value - rep.cross_check) <= 1e-8


def test_sup_plus_symmetric_coefficients():
    rep = sup_plus(RobinBC(1.0, 1.0))
    # root of 1 - 2*arctan(1/sqrt(mu))/sqrt(mu) = 1/mu
    assert rep.value == pytest.approx(2.8028819419218516, abs=1e-9)


def test_sup_minus_constant_branch():
    rep = sup_minus(RobinBC(0.0, 0.0))
    assert rep.value == -1.0
    assert rep.branch.endswith("k0sq+k1sq<=1")
    assert rep.q_star.segments[0].value == -1.0
    assert rep.q_star.atoms == ()
    assert abs(rep.value - rep.cross_check) <= 1e-8


def test_sup_minus_split_masses_branch():
    rep = sup_minus(RobinBC(0.5, 0.5))
    assert rep.value == pytest.approx(0.0, abs=1e-10)
    assert [a.weight for a in rep.q_star.atoms] == [-0.5, -0.5]


def test_sup_minus_right_mass_branch():
    rep = sup_minus(RobinBC(0.0, 1.0))
    assert rep.value == pytest.approx(0.0, abs=1e-10)
    assert rep.q_star.atoms[0].position == 1.0


def _endpoint_masses(w0, w1):
    return Potential(atoms=(DeltaAtom(0.0, w0), DeltaAtom(1.0, w1)))


def test_sup_minus_case_boundary_continuity():
    # the (a)/(b) boundary: k0sq + k1sq = 1
    k0 = 0.3
    a = k0 + 0.7 - 1.0
    b = lambda1_value(Potential(), RobinBC(0.0, 0.0), 1e-12)
    assert abs(a - b) <= 1e-9
    # the (b)/(c) boundary: k1sq - k0sq = 1
    k0 = 0.25
    c = 0.5 * (k0 + (k0 + 1.0) - 1.0)
    vb = lambda1_value(_endpoint_masses(c, c), RobinBC(0.0, 0.0), 1e-12)
    vc = lambda1_value(_endpoint_masses(k0, k0 + 1.0 - 1.0), RobinBC(0.0, 0.0), 1e-12)
    assert abs(vb - vc) <= 1e-9


def test_inf_plus_neumann_value():
    rep = inf_plus(RobinBC(0.0, 0.0))
    assert rep.value == pytest.approx(LAM_DELTA1, abs=1e-6)
    assert rep.q_star.atoms[0] == rep.q_star.atoms[0].__class__(1.0, 1.0)
    assert abs(rep.value - rep.cross_check) <= 1e-8


def test_inf_plus_secular_agreement():
    # the first eigenvalue of the zero potential at (k0sq, k1sq + 1), certified
    # by the exact mpmath shot
    for bc in BC_GRID:
        _assert_certified((_EDGES0, _VALS0, _ATOMW0, bc.k0sq, bc.k1sq + 1.0), inf_plus(bc).value, ROOT_TOL)


def test_inf_plus_positive():
    for bc in BC_GRID:
        assert inf_plus(bc).value > 0.0


def test_half_eigenvalue_constant_at_half():
    bc = RobinBC(0.5, 0.5)
    for z in np.linspace(1.0 / 21.0, 1.0, 21):
        assert left_half_eigenvalue(float(z), bc) == pytest.approx(-0.25, abs=1e-9)
    for z in np.linspace(0.0, 20.0 / 21.0, 21):
        assert right_half_eigenvalue(float(z), bc) == pytest.approx(-0.25, abs=1e-9)


def test_half_eigenvalue_divergence_trend():
    bc = RobinBC(1.0, 1.0)
    m1 = left_half_eigenvalue(0.1, bc)
    m2 = left_half_eigenvalue(0.01, bc)
    assert m2 > m1 > 0.0
    assert m2 > 5.0 * m1  # roughly (k0sq - 1/2)/zeta growth


def test_half_eigenvalue_monotonicity():
    bc = RobinBC(1.0, 2.0)
    zs = np.linspace(0.05, 0.95, 10)
    mu0s = [left_half_eigenvalue(float(z), bc) for z in zs]
    mu1s = [right_half_eigenvalue(float(z), bc) for z in zs]
    assert all(a > b for a, b in zip(mu0s, mu0s[1:]))
    assert all(a < b for a, b in zip(mu1s, mu1s[1:]))


@pytest.mark.parametrize("zeta", [0.0, -0.1, 1.1, math.nan])
def test_left_half_eigenvalue_rejects_zeta(zeta):
    with pytest.raises(ValueError, match=r"^zeta must lie in \(0, 1\]$"):
        left_half_eigenvalue(zeta, RobinBC(0.25, 0.5))


@pytest.mark.parametrize("zeta", [1.0, -0.1, 1.1, math.nan])
def test_right_half_eigenvalue_rejects_zeta(zeta):
    with pytest.raises(ValueError, match=r"^zeta must lie in \[0, 1\)$"):
        right_half_eigenvalue(zeta, RobinBC(0.25, 0.5))


def test_inf_minus_flat_case():
    rep = inf_minus(RobinBC(0.5, 0.5))
    assert rep.value == -0.25
    assert rep.branch == "m1minus/interior-any-zeta"
    assert rep.q_star.atoms[0].position == 0.5
    assert abs(rep.value - rep.cross_check) <= 1e-8


def test_inf_minus_interior_symmetric():
    rep = inf_minus(RobinBC(1.0, 1.0))
    assert rep.branch == "m1minus/interior"
    zeta = rep.q_star.atoms[0].position
    assert zeta == pytest.approx(0.5, abs=1e-9)
    assert rep.value == pytest.approx(left_half_eigenvalue(0.5, RobinBC(1.0, 1.0)), abs=1e-9)
    assert rep.value >= -1.0  # floor -k0sq^2
    assert abs(rep.value - rep.cross_check) <= 1e-8


@pytest.mark.parametrize("bc", [RobinBC(1.0, 1.0), RobinBC(0.75, 2.0), RobinBC(0.6, 0.6)])
def test_inf_minus_solves_each_zeta_once(bc, monkeypatch):
    # the interior crossing comes in closed form: no half-interval solve at all
    import robinsl.extrema as ex

    seen = []

    def counting(real):
        return lambda zeta, bc: seen.append(zeta) or real(zeta, bc)

    monkeypatch.setattr(ex, "left_half_eigenvalue", counting(left_half_eigenvalue))
    monkeypatch.setattr(ex, "right_half_eigenvalue", counting(right_half_eigenvalue))
    rep = ex.inf_minus(bc)
    assert rep.branch == "m1minus/interior"
    assert seen == []


def test_inf_minus_endpoint_case():
    bc = RobinBC(0.25, 0.25)
    rep = inf_minus(bc)
    assert rep.branch == "m1minus/delta0"
    assert rep.q_star.atoms[0].position == 0.0
    assert abs(rep.value - rep.cross_check) <= 1e-8
    # left mass no worse than right mass for ordered coefficients
    lam0 = rep.value
    lam1 = lambda1_value(_endpoint_masses(bc.k0sq, bc.k1sq - 1.0), RobinBC(0.0, 0.0), 1e-12)
    assert lam0 <= lam1 + 1e-12


def test_point_mass_scan_reaches_the_infima():
    # lambda1 is concave in q, so over the unit-mass potentials of one sign
    # it is least at an extreme point of the class, a point mass +-delta_z
    # (one at an end folds into that end's coefficient): each infimum is the
    # least lambda1 of a point mass over z.  A scan of 401 z never goes below
    # the reported value, and reaches it to 1e-12, or to the grid's reach at
    # inf_minus' interior minimum
    zs = np.linspace(0.0, 1.0, 401).tolist()
    for bc in [*BC_GRID, RobinBC(0.75, 3.0)]:
        for rep, weight in ((inf_plus(bc), 1.0), (inf_minus(bc), -1.0)):
            least = min(lambda1_value(Potential(atoms=(DeltaAtom(z, weight),)), bc, 1e-12) for z in zs)
            assert least >= rep.value - 1e-12, (bc, rep.kind, least - rep.value)
            reach = 1e-6 if rep.branch == "m1minus/interior" else 1e-12
            assert least <= rep.value + reach, (bc, rep.kind, least - rep.value)


def test_cross_checks_on_grid():
    for bc in BC_GRID:
        for rep in all_extrema(bc):
            assert abs(rep.value - rep.cross_check) <= 1e-8, (bc, rep.kind)


@pytest.mark.parametrize("d", [1e-6, -1e-6, 1e-3, -1e-3, 0.5, -0.5])
def test_cross_check_does_not_trust_its_start(d):
    # the cross-check's first shot is at the reported value, but every shot
    # moves an end of the bracket by its own predicate: a value moved by d
    # still gets the certified eigenvalue of q_star, and so fails criterion 4
    for bc in BC_GRID:
        for rep in all_extrema(bc):
            moved = ex._report(rep.kind, rep.value + d, rep.q_star, rep.branch, bc)
            want = lambda1_value(rep.q_star, bc, 1e-12)
            assert abs(moved.cross_check - want) <= 1e-11 * max(1.0, abs(want)), (bc, rep.kind)
            assert abs(moved.value - moved.cross_check) > 1e-8, (bc, rep.kind)


# BC_GRID, an ordered 9 x 9 grid over [0, 2] x [0, 4], and the edge points of
# perfbench's extrema_grid
_BUDGET_PAIRS = [
    *((bc.k0sq, bc.k1sq) for bc in BC_GRID),
    *((a, b) for a in np.linspace(0.0, 2.0, 9).tolist() for b in np.linspace(0.0, 4.0, 9).tolist() if a <= b),
    *_edge_points(),
]


@pytest.mark.parametrize("tol", [ROOT_TOL, 1e-10])
def test_cross_check_takes_at_most_three_shots(tol, monkeypatch):
    # started at the value, within tol of lambda1, a cross-check closes its
    # bracket in 2 or 3 shots; from the Rayleigh quotient it took 2 to 10
    shots, taken = [0], []
    shoot, report = K.shoot_kernel, ex._report

    def counted_shoot(*args):
        shots[0] += 1
        return shoot(*args)

    def counted_report(kind, value, q_star, branch, bc):
        shots[0] = 0
        rep = report(kind, value, q_star, branch, bc)
        taken.append((shots[0], kind, bc))
        return rep

    monkeypatch.setattr(K, "shoot_kernel", counted_shoot)
    monkeypatch.setattr(ex, "_report", counted_report)
    for a, b in _BUDGET_PAIRS:
        all_extrema(RobinBC(a, b), tol)
    assert len(taken) == 4 * len(_BUDGET_PAIRS)
    assert [t for t in taken if t[0] > 3] == []


@pytest.mark.parametrize("tol", [ROOT_TOL, 1e-10])
def test_only_the_cross_checks_solve(tol, monkeypatch):
    # every value is a closed form, so the shooting solver runs once a
    # report, for its cross-check, and never for a value: criterion 4 then
    # sets the solver against an independent number on every branch.  The
    # two meet within tol (measured: 4.8e-13 at 1e-12, 4.6e-11 at 1e-10)
    solves, per_report = [0], []
    kernel, report = ES.lambda1_kernel, ex._report

    def counted_kernel(*args):
        solves[0] += 1
        return kernel(*args)

    def counted_report(*args):
        before = solves[0]
        rep = report(*args)
        per_report.append(solves[0] - before)
        return rep

    monkeypatch.setattr(ES, "lambda1_kernel", counted_kernel)
    monkeypatch.setattr(ex, "_report", counted_report)
    for a, b in _BUDGET_PAIRS:
        solves[0] = 0
        for rep in all_extrema(RobinBC(a, b), tol):
            assert abs(rep.value - rep.cross_check) <= tol + 1e-12 * max(1.0, abs(rep.value)), (a, b, rep.kind)
        assert solves[0] == 4, (a, b)
    assert per_report == [1] * (4 * len(_BUDGET_PAIRS))


def test_all_extrema_calls_the_module_functions(monkeypatch):
    # all_extrema reads its four functions from the module at each call, so a
    # wrapper installed since import, as perfbench's tracer installs, is called
    calls, real = [], ex.inf_minus

    def counted(bc, tol):
        calls.append(bc)
        return real(bc, tol)

    monkeypatch.setattr(ex, "inf_minus", counted)
    for bc in BC_GRID:
        assert [r.kind for r in all_extrema(bc)] == list(ex.KINDS)
    assert calls == BC_GRID


def test_extrema_ordering():
    for bc in BC_GRID:
        reps = {r.kind: r.value for r in all_extrema(bc)}
        assert reps["m1minus"] <= reps["M1minus"] + 1e-12
        assert reps["m1plus"] <= reps["M1plus"] + 1e-12
        assert reps["M1minus"] < reps["m1plus"]


def test_extremal_mass_normalization_and_sign():
    for bc in BC_GRID:
        for rep in all_extrema(bc):
            sign = 1.0 if rep.kind.endswith("plus") else -1.0
            assert total_integral(rep.q_star) == pytest.approx(sign, abs=1e-9)
            for s in rep.q_star.segments:
                assert s.value * sign > 0.0
            for a in rep.q_star.atoms:
                assert a.weight * sign > 0.0


def test_strength_supremum_at_inf_plus():
    # at the positive-class infimum the strength map is defined on all of
    # [0, 1] with supremum 1 attained at the right endpoint
    for bc in (RobinBC(0.0, 0.0), RobinBC(0.25, 0.5)):
        mu = inf_plus(bc).value
        zs = np.linspace(0.0, 1.0, 1001)
        pts = [delta_strength(mu, float(z), bc) for z in zs]
        assert all(p.in_domain for p in pts)
        vals = np.array([p.value for p in pts])
        # supremum 1 attained at the right endpoint (also at the left one when
        # the coefficients coincide)
        assert vals[-1] >= vals.max() - 1e-9
        assert abs(vals.max() - 1.0) <= 1e-6


def test_strength_supremum_at_inf_minus_interior():
    bc = RobinBC(1.0, 1.0)
    rep = inf_minus(bc)
    zs = np.linspace(0.0, 1.0, 1001)
    vals = np.array([delta_strength(rep.value, float(z), bc).value for z in zs])
    zeta = rep.q_star.atoms[0].position
    assert delta_strength(rep.value, zeta, bc).value == pytest.approx(-1.0, abs=1e-6)
    assert abs(vals.max() + 1.0) <= 1e-6


def test_sup_plus_eigenfunction_plateau():
    for bc in (RobinBC(0.25, 0.5), RobinBC(1.0, 1.0)):
        rep = sup_plus(bc)
        seg = rep.q_star.segments[0]
        res = lambda1(rep.q_star, bc, 1e-12)
        on = (res.xs >= seg.left - 1e-12) & (res.xs <= seg.right + 1e-12)
        plateau = res.ys[on]
        assert (plateau.max() - plateau.min()) / plateau.max() <= 1e-6


TOL_TAKERS = {
    "lambda1_value": lambda tol: lambda1_value(Potential(), RobinBC(1.0, 1.0), tol),
    "lambda1": lambda tol: lambda1(Potential(), RobinBC(1.0, 1.0), tol),
    "sup_plus": lambda tol: sup_plus(RobinBC(1.0, 1.0), tol),
    "sup_minus": lambda tol: sup_minus(RobinBC(0.0, 0.0), tol),  # closed-form branch
    "inf_plus": lambda tol: inf_plus(RobinBC(1.0, 1.0), tol),
    "inf_minus": lambda tol: inf_minus(RobinBC(0.5, 0.5), tol),  # flat branch, no root-find
    "all_extrema": lambda tol: all_extrema(RobinBC(1.0, 1.0), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", list(TOL_TAKERS))
def test_bad_tol_rejected(name, tol):
    # an infinite tol once returned the midpoint of the starting bracket as
    # the eigenvalue, and a nan one a ToleranceNotReached "> nan"
    with pytest.raises(ValueError, match="^tol must be positive and finite, got "):
        TOL_TAKERS[name](tol)

import math

import numpy as np
import pytest

from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    delta_strength,
    lambda1_value,
)
from robinsl.fmap import _decay, phase_offsets

BC00 = RobinBC(0.0, 0.0)
BC11 = RobinBC(1.0, 1.0)
BCHH = RobinBC(0.5, 0.5)

MU_GRID = (-2.0, -0.5, -0.1, 0.0, 0.3, 1.0, 3.0)
ZETA_GRID = tuple(np.linspace(0.0, 1.0, 11))
BC_GRID = (BC00, RobinBC(0.25, 0.5), BC11, RobinBC(0.0, 2.0))


def test_phase_offsets_zero_coefficients():
    assert phase_offsets(1.0, BC00) == (0.0, 0.0)


def test_phase_offsets_arctan():
    alpha, beta = phase_offsets(1.0, BC11)
    assert alpha == pytest.approx(math.pi / 4, abs=1e-15)
    assert beta == pytest.approx(math.pi / 4, abs=1e-15)


def test_decay_logslope_middle_branch():
    for x in (0.0, 0.3, 1.0):
        assert _decay(2.0, 2.0, x) == (1.0, 0.0)


def test_decay_logslope_at_origin():
    # the offset 0.5*log((kappa+nu)/|kappa-nu|) is log(sqrt(3)) here, and
    # tanh(log(sqrt(3))) = (3-1)/(3+1)
    assert _decay(2.0, 1.0, 0.0)[0] == pytest.approx(0.5, rel=1e-14)
    # the coth branch gives kappa/nu at x=0
    assert _decay(1.0, 2.0, 0.0)[0] == pytest.approx(2.0, rel=1e-14)


def test_strength_zero_mu_neumann():
    for z in ZETA_GRID:
        assert delta_strength(0.0, z, BC00).value == 0.0


def test_strength_negative_constant_branch():
    # at mu = -k0^4 = -k1^4 both kernels sit on the middle branch
    for z in ZETA_GRID:
        pt = delta_strength(-0.25, z, BCHH)
        assert pt.in_domain
        assert pt.value == pytest.approx(-1.0, abs=1e-12)


def test_strength_inverts_infimum_point():
    lam = lambda1_value(Potential(atoms=(DeltaAtom(1.0, 1.0),)), BC00, 1e-12)
    pt = delta_strength(lam, 1.0, BC00)
    assert pt.in_domain
    assert pt.value == pytest.approx(1.0, abs=1e-6)


def test_strength_domain_flag_positive_mu():
    # mu=3 under Neumann: the tangent phase leaves the open half-period near
    # the endpoints, so zeta=0 and 1 are outside the domain
    assert not delta_strength(3.0, 0.0, BC00).in_domain
    assert not delta_strength(3.0, 1.0, BC00).in_domain
    assert delta_strength(3.0, 0.5, BC00).in_domain


def test_defining_identity_on_grid():
    for bc in (BC11,):
        for mu in MU_GRID:
            for z in ZETA_GRID:
                pt = delta_strength(mu, float(z), bc)
                if not pt.in_domain:
                    continue
                q = Potential(atoms=(DeltaAtom(float(z), pt.value),))
                lam = lambda1_value(q, bc, 1e-12)
                assert abs(lam - mu) <= 1e-8


def test_strength_monotone_in_mu():
    for bc in BC_GRID:
        for z in (0.0, 0.3, 0.7, 1.0):
            vals = [
                delta_strength(mu, z, bc).value
                for mu in MU_GRID
                if delta_strength(mu, z, bc).in_domain
            ]
            assert all(a < b for a, b in zip(vals, vals[1:]))


def test_regime_matching_at_zero():
    for bc in BC_GRID:
        for z in (0.0, 0.25, 0.5, 1.0):
            f0 = delta_strength(0.0, z, bc).value
            up = delta_strength(1e-8, z, bc).value
            dn = delta_strength(-1e-8, z, bc).value
            assert abs(up - f0) <= 1e-6
            assert abs(dn - f0) <= 1e-6


def test_continuity_across_regimes():
    # smoke test: no jumps along mu through 0 beyond the local slope scale
    bc = RobinBC(0.25, 0.5)
    for z in (0.0, 0.4, 1.0):
        mus = np.linspace(-0.1, 0.1, 201)
        vals = [delta_strength(float(m), z, bc).value for m in mus]
        steps = np.abs(np.diff(vals))
        assert steps.max() <= 50.0 * (mus[1] - mus[0])


def test_dzeta_symmetric_midpoint():
    for mu in (-0.5, 0.0, 0.5, 2.0):
        assert delta_strength(mu, 0.5, BC11).dzeta == pytest.approx(0.0, abs=1e-10)


def test_dzeta_zero_mu_analytic():
    # F = -1/(2 - zeta) at mu = 0 and bc (0, 1); d/dzeta is -1/(2 - zeta)^2
    for z in (0.1, 0.5, 0.9):
        assert delta_strength(0.0, z, RobinBC(0.0, 1.0)).dzeta == pytest.approx(
            -1.0 / (2.0 - z) ** 2, rel=1e-12
        )


def test_dzeta_matches_central_differences():
    h = 1e-5
    for bc in (RobinBC(0.25, 0.5), BC11):
        for mu in np.linspace(-2.0, 2.5, 20):
            for z in np.linspace(h, 1.0 - h, 20):
                pt = delta_strength(float(mu), float(z), bc)
                if not pt.in_domain:
                    continue
                up = delta_strength(float(mu), float(z + h), bc)
                dn = delta_strength(float(mu), float(z - h), bc)
                if not (up.in_domain and dn.in_domain):
                    continue
                fd = (up.value - dn.value) / (2.0 * h)
                assert pt.dzeta == pytest.approx(
                    fd, abs=1e-6, rel=1e-6
                )


def test_dzeta_strictly_negative_between_coefficient_scales():
    # for mu strictly between -k1^4 and -k0^4 the strength decreases in zeta
    bc = RobinBC(0.5, 1.0)
    mu = -0.5  # between -(1.0)^2 and -(0.5)^2
    for z in np.linspace(0.05, 0.95, 10):
        assert delta_strength(mu, float(z), bc).dzeta < 0.0


def test_dzeta_out_of_domain_is_nan():
    pt = delta_strength(3.0, 0.0, BC00)
    assert not pt.in_domain
    assert math.isnan(pt.value) and math.isnan(pt.dzeta)


@pytest.mark.parametrize("mu, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_non_finite_mu_rejected(mu, text):
    with pytest.raises(ValueError, match=f"^mu must be finite, got {text}$"):
        delta_strength(mu, 0.5, BC00)


@pytest.mark.parametrize("zeta", [-1e-300, -0.5, 1.0 + 1e-15, 2.0, math.nan])
def test_zeta_outside_unit_interval_rejected(zeta):
    with pytest.raises(ValueError, match=r"^zeta must lie in \[0, 1\]$"):
        delta_strength(-1.0, zeta, BC00)


def test_decay_slope_derivative_continuous_across_the_square_overflow():
    # nu*sech^2(arg) with kappa = 0 (no offset, so arg = nu*x): cosh(arg)**2
    # leaves the float range at arg ~ 355.6, where 4*exp(-2*arg) takes over
    for x in np.linspace(350.0, 360.0, 201):
        g, d = _decay(1.0, 0.0, float(x))
        assert g == 1.0
        assert d == pytest.approx(4.0 * math.exp(-2.0 * x), rel=1e-13)
    # the coth branch: -nu*csch^2, past sinh's own overflow too
    for x in (300.0, 356.0, 800.0):
        assert _decay(1.0, 2.0, x)[1] == pytest.approx(-4.0 * math.exp(-2.0 * (x + 0.5 * math.log(3.0))), rel=1e-12)


@pytest.mark.parametrize("bc", [BC00, RobinBC(0.25, 0.5), RobinBC(0.0, 2.0)])
@pytest.mark.parametrize("mu", [-1.5e5, -1e8, -1e12])
def test_dzeta_finite_at_deep_negative_mu(bc, mu):
    # the zeta-derivative overflowed for mu below about -1.4e5 while the value
    # did not; both come from one evaluator now
    nu = math.sqrt(-mu)
    for z in (0.0, 0.3, 0.5, 1.0):
        d = delta_strength(mu, z, bc).dzeta
        assert math.isfinite(d) and math.isfinite(delta_strength(mu, z, bc).value)
        assert abs(d) <= nu * nu * 1.000001
    # hundreds of decay lengths from both ends the map is flat
    assert abs(delta_strength(mu, 0.5, bc).dzeta) <= 1e-100
    # at a Neumann end the slope is -nu * nu*sech^2(0) = mu, less the far end's
    if bc is BC00:
        assert delta_strength(mu, 0.0, bc).dzeta == mu
        assert delta_strength(mu, 1.0, bc).dzeta == -mu


def _mp_closed_form(mu, zeta, bc):
    """(F, dF/dzeta) of the closed form for the sign of mu, at 60 digits."""
    import mpmath as mp

    with mp.workdps(60):
        mu, zeta, k0, k1 = (mp.mpf(v) for v in (mu, zeta, bc.k0sq, bc.k1sq))
        if mu == 0:
            p, r = 1 + k0 * zeta, 1 + k1 * (1 - zeta)
            return float(-k0 / p - k1 / r), float(k0**2 / p**2 - k1**2 / r**2)
        if mu > 0:
            s = mp.sqrt(mu)
            a, b = s * zeta - mp.atan2(k0, s), s * (1 - zeta) - mp.atan2(k1, s)
            return float(s * (mp.tan(a) + mp.tan(b))), float(mu * (1 / mp.cos(a) ** 2 - 1 / mp.cos(b) ** 2))
        nu = mp.sqrt(-mu)

        def g(k, x):
            # the tanh/coth branch and its x-derivative
            arg = nu * x + mp.log((k + nu) / abs(k - nu)) / 2
            if nu > k:
                return mp.tanh(arg), nu / mp.cosh(arg) ** 2
            return 1 / mp.tanh(arg), -nu / mp.sinh(arg) ** 2

        (g0, d0), (g1, d1) = g(k0, zeta), g(k1, 1 - zeta)
        return float(-nu * (g0 + g1)), float(-nu * (d0 - d1))


def _mp_strength(mu, zeta, bc):
    return _mp_closed_form(mu, zeta, bc)[0]


# coefficients past ~1e9 put mu = 1e-6 outside the domain at zeta near their end
BIG_BCS = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0), (1e10, 1e10), (0.0, 1e10), (1e3, 1e9)]
BAND_MUS = [0.0, 1e-9, -1e-9, 5e-9, -5e-9, 1e-12, -1e-12, 9.9e-9, -9.9e-9]
BAND_ZETAS = [0.0, 1e-13, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-13, 1.0]


def _up_outside(bc, zeta):
    return zeta <= 1e-13 and bc[0] >= 1e9 or zeta >= 1.0 - 1e-13 and bc[1] >= 1e9


def test_zero_band_matches_mpmath():
    # the mu = 0 values plus their first-order terms in mu, against the exact
    # branches at 60 digits, coefficients up to 1e10: F within 4 ulp of |F|
    # plus the remainder mu^2/3 (|d^2 u/dmu^2| <= 2*x^3/3 on each side, which
    # counts only where |F| is of order mu, as at RobinBC(0, 0)); dF/dzeta
    # within 4 ulp of the terms k0^2/p^2 + k1^2/r^2 that cancel in it, plus
    # 4*mu^2.  The central difference of mu = +-1e-6 that this replaced was
    # off by 3.0 in F at RobinBC(0, 1e8), zeta = 1, mu = -9.9e-9
    ks = [0.0, 1e-3, 0.25, 1.0, 4.0, 1e3, 1e6, 1e8, 5e8, 1e9, 1e10]
    zetas = [0.0, 1e-13, 1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-13, 1.0]
    checked = 0
    for k0 in ks:
        for k1 in (k for k in ks if k >= k0):
            bc = RobinBC(k0, k1)
            for z in zetas:
                for mu in (9.9e-9, -9.9e-9, 1e-12, -1e-12, 0.0):
                    p = delta_strength(mu, z, bc)
                    if not p.in_domain:
                        continue
                    f, d = _mp_closed_form(mu, z, bc)
                    terms = (k0 / (1.0 + k0 * z)) ** 2 + (k1 / (1.0 + k1 * (1.0 - z))) ** 2
                    assert abs(p.value - f) <= 4.0 * math.ulp(abs(f)) + mu * mu / 3.0, (bc, z, mu, p.value, f)
                    got = p.dzeta
                    assert abs(got - d) <= 4.0 * math.ulp(terms) + 4.0 * mu * mu, (bc, z, mu, got, d)
                    checked += 1
    assert checked >= 2500


def test_zero_band_domain_rule():
    # a positive mu in the band is outside the domain only where both its own
    # closed form and that of mu = 1e-6 are: so mu = 9.9e-9 is inside here,
    # though mu = 1e-8, on the exact branch, is not
    bc = RobinBC(1e10, 1e10)
    assert delta_strength(9.9e-9, 1.0 - 1e-9, bc).in_domain
    assert not delta_strength(1e-8, 1.0 - 1e-9, bc).in_domain
    # the flags over a grid, pinned before the correction changed
    import hashlib
    import json

    ks = [0.0, 1e-3, 0.25, 1.0, 1e3, 1e6, 1e7, 1e8, 1e9, 3e9, 1e10]
    zetas = [0.0, 1e-15, 1e-13, 1e-11, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-11, 1 - 1e-13, 1.0]
    flags = [
        delta_strength(mu, z, RobinBC(k0, k1)).in_domain
        for k0 in ks
        for k1 in ks
        if k1 >= k0
        for mu in (1e-15, 1e-12, 1e-10, 1e-9, 5e-9, 9.9e-9)
        for z in zetas
    ]
    assert (len(flags), sum(flags)) == (3960, 3348)
    digest = hashlib.sha256(json.dumps(flags).encode()).hexdigest()
    assert digest == "44fa8117e16076043cba8d80038701e862e2e900305d0237cc091d77180b133e"


def test_zero_band_keeps_its_bits():
    # every value of the zero band, pinned after the closed-form first-order
    # term replaced the central difference (test_zero_band_matches_mpmath)
    import hashlib
    import json

    rows = [
        [bc, mu, z, repr(delta_strength(mu, z, RobinBC(*bc)).value), repr(delta_strength(mu, z, RobinBC(*bc)).dzeta)]
        for bc in BIG_BCS
        for mu in BAND_MUS
        for z in BAND_ZETAS
        if not _up_outside(bc, z)
    ]
    assert len(rows) == 576
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "c6e69b1fd8ec2e2d21c665ace3e23458ff7a0a05a8593d98e7483920e609e15f"


@pytest.mark.parametrize("bc", [(1e10, 1e10), (0.0, 1e10), (1e3, 1e9)])
def test_zero_band_where_its_upper_neighbour_is_outside(bc):
    # these gave nan with in_domain=True; outside the domain F and dF/dzeta are nan
    q = RobinBC(*bc)
    for z in BAND_ZETAS:
        if not _up_outside(bc, z):
            continue
        for mu in BAND_MUS:
            p = delta_strength(mu, z, q)
            if mu > 0.0:
                assert not p.in_domain and math.isnan(p.value) and math.isnan(p.dzeta), (mu, z)
                continue
            assert p.in_domain and math.isfinite(p.value), (mu, z)
            assert math.isfinite(p.dzeta), (mu, z)
            if mu < 0.0:
                # F is ~1e10 here; a difference with mu = -1e-6 would be off by ~1e4
                assert abs(p.value - _mp_strength(mu, z, q)) < 1e-6, (mu, z)

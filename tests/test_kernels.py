import json
import math
import subprocess
import sys

import pytest

import numpy as np

from robinsl import lambda1_value, sup_plus, RobinBC, Potential, DeltaAtom, Segment
from robinsl._kernels import lambda1_kernel, propagate_step, shoot_kernel

_PROBE = r"""
import json
import robinsl as rs
try:
    from numba import njit
    numba_ok = True
except ImportError:
    numba_ok = False
q = rs.Potential(segments=(rs.Segment(0.1, 0.6, 3.0),), atoms=(rs.DeltaAtom(0.7, -1.5),))
bc = rs.RobinBC(0.25, 0.5)
out = {
    "jit": rs.JIT_ENABLED,
    "numba": numba_ok,
    "lam": rs.lambda1_value(q, bc, 1e-12),
    "sup_plus": rs.sup_plus(rs.RobinBC(1.0, 1.0)).value,
    "inf_minus": rs.inf_minus(rs.RobinBC(1.0, 1.0)).value,
}
print(json.dumps(out))
"""


def _run_probe(env, flag):
    """Run _PROBE in a fresh interpreter under env; return its JSON report and its stderr.

    flag is the child's ROBINSL_NO_JIT value; None removes the variable.
    -W keeps RuntimeWarnings visible whatever PYTHONWARNINGS the caller runs
    under.
    """
    env = dict(env)
    if flag is None:
        env.pop("ROBINSL_NO_JIT", None)
    else:
        env["ROBINSL_NO_JIT"] = flag
    res = subprocess.run(
        [sys.executable, "-W", "default::RuntimeWarning", "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(res.stdout), res.stderr


def test_pure_fallback_matches_compiled_path(child_env):
    pure, _ = _run_probe(child_env, "1")
    assert pure["jit"] is False
    q = Potential(segments=(Segment(0.1, 0.6, 3.0),), atoms=(DeltaAtom(0.7, -1.5),))
    here = {
        "lam": lambda1_value(q, RobinBC(0.25, 0.5), 1e-12),
        "sup_plus": sup_plus(RobinBC(1.0, 1.0)).value,
    }
    # The compiled-vs-pure comparison is meaningful only where JIT_ENABLED is
    # true in this process; elsewhere `here` is the pure path too.  numba's
    # libm may differ from CPython's by an ulp, never more
    assert pure["lam"] == pytest.approx(here["lam"], abs=1e-12)
    assert pure["sup_plus"] == pytest.approx(here["sup_plus"], abs=1e-12)


def test_env_flag_enables_jit_by_default(child_env):
    # Unset and empty ROBINSL_NO_JIT both ask for JIT.  It is then on exactly
    # when numba imports; without numba the pure path runs and says so.
    for flag in (None, ""):
        probe, stderr = _run_probe(child_env, flag)
        if probe["numba"]:
            assert probe["jit"] is True
        else:
            assert probe["jit"] is False
            assert "RuntimeWarning: numba not available" in stderr


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
    res, zc, _, ok = shoot_kernel(edges, vals, atomw, 0.5, 0.5, -1.0e6)
    assert ok
    assert math.isfinite(res)


def test_zero_count_endpoint_zero_not_counted():
    # cos(pi x / 2) vanishes exactly at the cell end, not inside it
    y1, yp1, nz, _ = propagate_step(1.0, 0.0, (math.pi / 2.0) ** 2, 1.0)
    assert abs(y1) < 1e-12
    assert nz == 0


ZERO_Q = (np.array([0.0, 1.0]), np.zeros(1), np.zeros(2))


def _mismatch(k0sq, k1sq, lam):
    _, zc, f, ok = shoot_kernel(*ZERO_Q, k0sq, k1sq, lam)
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

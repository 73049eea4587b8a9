"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible with
`pytest -s`).  Runtime-limited criteria time the computation itself; a
warm-up call beforehand absorbs the first call's one-off imports.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    Segment,
    all_extrema,
    delta_strength,
    fd_lambda1,
    lambda1,
    lambda1_value,
    sup_plus,
)
from robinsl.cli import main
from robinsl.extrema import left_half_eigenvalue, right_half_eigenvalue

BC_GRID6 = [
    RobinBC(0.0, 0.0),
    RobinBC(0.25, 0.5),
    RobinBC(0.5, 0.5),
    RobinBC(1.0, 1.0),
    RobinBC(0.0, 2.0),
    RobinBC(1.0, 4.0),
]
VERIFY_SEEDS = [20260809 + i for i in range(len(BC_GRID6))]


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_cli_reproduces_reference_value(capsys):
    with criterion(1, "cli inf_plus value at (0,0) under 1s"):
        argv = ["extrema", "--k0sq", "0", "--k1sq", "0"]
        assert main(argv) == 0  # warm-up call absorbs first-call imports
        capsys.readouterr()
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        rep = {r["kind"]: r for r in json.loads(out)}
        assert abs(rep["m1plus"]["value"] - 0.740174) <= 1e-6
        assert elapsed < 1.0, f"extrema took {elapsed:.3f}s"


def test_criterion_2_closed_form_cases():
    with criterion(2, "closed-form extrema and flat strength line"):
        reps00 = {r.kind: r.value for r in all_extrema(RobinBC(0.0, 0.0))}
        assert abs(reps00["M1plus"] - 1.0) <= 1e-9
        assert abs(reps00["M1minus"] - (-1.0)) <= 1e-9
        reps55 = {r.kind: r.value for r in all_extrema(RobinBC(0.5, 0.5))}
        assert abs(reps55["m1minus"] - (-0.25)) <= 1e-9
        bc = RobinBC(0.5, 0.5)
        for z in np.linspace(0.0, 1.0, 101):
            assert abs(delta_strength(-0.25, float(z), bc).value - (-1.0)) <= 1e-9


def test_criterion_3_strength_map_defining_identity():
    with criterion(3, "lambda1(F*delta) = mu on the full grid under 30s"):
        t0 = time.perf_counter()
        bcs = [RobinBC(0.0, 0.0), RobinBC(0.25, 0.5), RobinBC(1.0, 1.0), RobinBC(0.0, 2.0)]
        checked = 0
        for bc in bcs:
            for mu in (-2.0, -0.5, -0.1, 0.0, 0.3, 1.0, 3.0):
                for z in np.linspace(0.0, 1.0, 11):
                    pt = delta_strength(mu, float(z), bc)
                    if not pt.in_domain:
                        continue
                    q = Potential(atoms=(DeltaAtom(float(z), pt.value),))
                    lam = lambda1_value(q, bc, 1e-12)
                    assert abs(lam - mu) <= 1e-8, (bc, mu, z)
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert checked > 250
        assert elapsed < 30.0, f"identity grid took {elapsed:.1f}s"


def _endpoint_masses(w0, w1):
    return Potential(atoms=(DeltaAtom(0.0, w0), DeltaAtom(1.0, w1)))


def test_criterion_4_extremal_cross_checks():
    with criterion(4, "extrema agree with their recomputed potentials"):
        for bc in BC_GRID6:
            for rep in all_extrema(bc):
                assert abs(rep.value - rep.cross_check) <= 1e-8, (bc, rep.kind)
        # negative-class branch seams: (a)=(b) at k0sq+k1sq=1, (b)=(c) at
        # k1sq-k0sq=1, both realized through zero potentials whose endpoint
        # masses give the effective coefficients
        k0, k1 = 0.3, 0.7
        va = k0 + k1 - 1.0
        c = 0.5 * (k0 + k1 - 1.0)
        vb = lambda1_value(_endpoint_masses(c, c), RobinBC(0.0, 0.0), 1e-12)
        assert abs(va - vb) <= 1e-9
        k0, k1 = 0.25, 1.25
        c = 0.5 * (k0 + k1 - 1.0)
        vb = lambda1_value(_endpoint_masses(c, c), RobinBC(0.0, 0.0), 1e-12)
        vc = lambda1_value(_endpoint_masses(k0, k1 - 1.0), RobinBC(0.0, 0.0), 1e-12)
        assert abs(vb - vc) <= 1e-9


def test_criterion_5_randomized_bound_holding(tmp_path):
    with criterion(5, "10^4 samples per class per bc respect the bounds"):
        t0 = time.perf_counter()
        for i, (bc, seed) in enumerate(zip(BC_GRID6, VERIFY_SEEDS)):
            out = tmp_path / f"verify_{i}.json"
            code = main(
                [
                    "verify",
                    "--k0sq", repr(bc.k0sq),
                    "--k1sq", repr(bc.k1sq),
                    "--n", "10000",
                    "--pieces-max", "8",
                    "--seed", str(seed),
                    "--output", str(out),
                ]
            )
            report = json.loads(out.read_text())
            assert code == 0, (bc, report["violations"][:3])
            assert report["n_samples"] == 20_000
            assert report["violations"] == []
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"bound checking took {elapsed:.0f}s"


def test_criterion_6_oracle_equivalence():
    with criterion(6, "shooting matches the finite-difference oracle"):
        rng = np.random.default_rng(20260809)
        bcs = [RobinBC(0.0, 0.0), RobinBC(0.25, 0.5), RobinBC(1.0, 1.0)]
        for trial in range(50):
            bc = bcs[trial % len(bcs)]
            nseg = int(rng.integers(1, 5))
            cuts = np.sort(rng.choice(np.arange(1, 2000), 2 * nseg, replace=False)) / 2000.0
            segs = tuple(
                Segment(cuts[2 * i], cuts[2 * i + 1], float(rng.uniform(-10.0, 10.0)))
                for i in range(nseg)
            )
            natom = int(rng.integers(1, 3))
            pos = rng.choice(np.arange(1, 2000), natom, replace=False) / 2000.0
            atoms = tuple(DeltaAtom(float(p), float(rng.uniform(-2.0, 2.0))) for p in pos)
            q = Potential(segments=segs, atoms=atoms)
            a = lambda1_value(q, bc, 1e-12)
            b = fd_lambda1(q, bc, 2000)
            assert abs(a - b) <= 1e-3, (trial, a, b)


def test_criterion_7_property_suite():
    with criterion(7, "monotonicity, mass bound, derivative, plateau, flat curves"):
        # strictly increasing in the point-mass weight
        for bc in (RobinBC(0.25, 0.5), RobinBC(1.0, 1.0)):
            for z in (0.0, 0.3, 0.7, 1.0):
                lams = [
                    lambda1_value(Potential(atoms=(DeltaAtom(z, a),)), bc, 1e-11)
                    for a in (-4.0, -1.0, 0.0, 0.5, 2.0)
                ]
                assert all(x < y for x, y in zip(lams, lams[1:]))
                # eigenvalue never exceeds weight plus coefficient mass
                for a, lam in zip((-4.0, -1.0, 0.0, 0.5, 2.0), lams):
                    assert lam <= a + bc.k0sq + bc.k1sq + 1e-9

        # closed-form zeta derivative against central differences
        h = 1e-5
        for bc in (RobinBC(0.25, 0.5), RobinBC(1.0, 1.0)):
            for mu in np.linspace(-2.0, 2.5, 20):
                for z in np.linspace(h, 1.0 - h, 20):
                    pt = delta_strength(float(mu), float(z), bc)
                    up = delta_strength(float(mu), float(z + h), bc)
                    dn = delta_strength(float(mu), float(z - h), bc)
                    if not (pt.in_domain and up.in_domain and dn.in_domain):
                        continue
                    fd = (up.value - dn.value) / (2.0 * h)
                    assert abs(pt.dzeta - fd) <= 1e-6 * max(
                        1.0, abs(fd)
                    )

        # the supremum eigenfunction is flat on the plateau
        for bc in (RobinBC(0.25, 0.5), RobinBC(1.0, 1.0)):
            rep = sup_plus(bc)
            seg = rep.q_star.segments[0]
            res = lambda1(rep.q_star, bc, 1e-12)
            on = (res.xs >= seg.left - 1e-12) & (res.xs <= seg.right + 1e-12)
            plateau = res.ys[on]
            assert (plateau.max() - plateau.min()) / plateau.max() <= 1e-6

        # half-interval curves are identically -1/4 at coefficient 1/2
        bc = RobinBC(0.5, 2.0)
        for z in np.linspace(1.0 / 21.0, 1.0, 21):
            assert abs(left_half_eigenvalue(float(z), bc) - (-0.25)) <= 1e-9
        bc = RobinBC(0.25, 0.5)
        for z in np.linspace(0.0, 20.0 / 21.0, 21):
            assert abs(right_half_eigenvalue(float(z), bc) - (-0.25)) <= 1e-9

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    Segment,
    ToleranceNotReached,
    all_extrema,
    delta_strength,
    fd_lambda1,
    lambda1_value,
    potential_to_dict,
    sup_plus,
)
from robinsl.cli import main
from robinsl.serialize import csv_lines, dumps, fmt_float


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_extrema_json(capsys):
    code, out, _ = run_cli(capsys, ["extrema", "--k0sq", "0", "--k1sq", "0"])
    assert code == 0
    reps = json.loads(out)
    by_kind = {r["kind"]: r for r in reps}
    assert list(by_kind) == ["M1plus", "M1minus", "m1plus", "m1minus"]
    assert abs(by_kind["m1plus"]["value"] - 0.740174) < 1e-6
    assert by_kind["M1plus"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert by_kind["M1minus"]["value"] == -1.0
    assert by_kind["m1plus"]["q_star"] == {"segments": [], "atoms": [{"z": 1.0, "w": 1.0}]}


def test_extrema_half_half(capsys):
    code, out, _ = run_cli(capsys, ["extrema", "--k0sq", "0.5", "--k1sq", "0.5"])
    assert code == 0
    by_kind = {r["kind"]: r for r in json.loads(out)}
    assert by_kind["m1minus"]["value"] == -0.25


def test_extrema_grid_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0,0.5", "0.5,1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k0sq,k1sq,M1plus,M1minus,m1plus,m1minus"
    assert len(lines) == 5


def test_extrema_grid_rows_match_api(capsys):
    from robinsl import RobinBC, all_extrema

    code, out, _ = run_cli(
        capsys, ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0.25", "0.5"]
    )
    assert code == 0
    header, row = out.strip().splitlines()
    cells = row.split(",")
    assert cells[0] == "0.25" and cells[1] == "0.5"
    want = [r.value for r in all_extrema(RobinBC(0.25, 0.5))]
    got = [float(c) for c in cells[2:]]
    assert got == pytest.approx(want, abs=1e-9)


def test_eigen_folds_endpoint_atoms(tmp_path, capsys):
    pot = tmp_path / "q.json"
    pot.write_text('{"segments":[],"atoms":[{"z":1.0,"w":1.0}]}')
    code, out, _ = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", str(pot)])
    assert code == 0
    assert abs(json.loads(out)["lambda1"] - 0.740173884394967) < 1e-9


def test_scan_f_single_point_axis(capsys):
    code, out, _ = run_cli(
        capsys, ["scan-f", "--k0sq", "0", "--k1sq", "0", "--mu=0:0:1", "--zeta=0.5"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_extrema_byte_stability(capsys):
    _, first, _ = run_cli(capsys, ["extrema", "--k0sq", "0.25", "--k1sq", "0.5"])
    _, second, _ = run_cli(capsys, ["extrema", "--k0sq", "0.25", "--k1sq", "0.5"])
    assert first == second


def test_eigen_constant_potential(tmp_path, capsys):
    pot = tmp_path / "q.json"
    pot.write_text('{"segments":[{"l":0,"r":1,"v":1}],"atoms":[]}')
    code, out, _ = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", str(pot)])
    assert code == 0
    res = json.loads(out)
    assert abs(res["lambda1"] - 1.0) < 1e-9
    assert res["bracket_width"] <= 1e-10
    assert len(res["eigenfunction"]) >= 1001
    assert all(y > 0 for _, y in res["eigenfunction"])


def test_eigen_csv_format(tmp_path, capsys):
    pot = tmp_path / "q.json"
    pot.write_text('{"segments":[],"atoms":[{"z":0.5,"w":-1.0}]}')
    code, out, _ = run_cli(
        capsys,
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "--format", "csv", str(pot)],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) >= 1002


def test_eigen_malformed_json(tmp_path, capsys):
    pot = tmp_path / "broken.json"
    pot.write_text("{not json")
    code, _, err = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", str(pot)])
    assert code == 2
    assert "error" in err


def test_eigen_missing_file(capsys):
    code, _, err = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", "/nope.json"])
    assert code == 2


def test_invalid_bc_rejected(capsys):
    code, _, err = run_cli(capsys, ["extrema", "--k0sq", "1", "--k1sq", "0.5"])
    assert code == 2
    assert "k1sq" in err


def test_extrema_grid_validates_before_solving(capsys, monkeypatch):
    import robinsl.cli

    calls = []
    real = robinsl.cli.all_extrema
    monkeypatch.setattr(robinsl.cli, "all_extrema", lambda bc, tol: calls.append(bc) or real(bc, tol))
    argv = ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0:2:9", "0:3:7"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "robinsl: error: k1sq must be >= k0sq, got k0sq=0.25, k1sq=0.0\n"
    assert calls == []


def test_invalid_tol_rejected(capsys):
    code, _, err = run_cli(capsys, ["extrema", "--k0sq", "0", "--k1sq", "0", "--tol", "1"])
    assert code == 2
    assert "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k0sq", "0", "--k1sq", "0", "--n", "5", "--tol", "1e-6"],
        ["scan-f", "--k0sq", "0", "--k1sq", "0", "--mu=0", "--zeta=0.5", "--tol", "1e-6"],
    ],
)
def test_tol_only_on_solving_subcommands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"segments": [{"l": 0, "r": 0.5, "v": NaN}], "atoms": []}',
        '{"segments": [], "atoms": [{"z": 0.5, "w": Infinity}]}',
    ],
)
def test_eigen_rejects_non_finite_values(tmp_path, capsys, text):
    pot = tmp_path / "q.json"
    pot.write_text(text)
    code, out, err = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", str(pot)])
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"segments": [{"l": 0, "r": 0.5}]}', "segments[0].v"),
        ('{"segments": [{"l": 0, "r": 0.5, "v": null}]}', "segments[0].v"),
        ('{"segments": 5}', "segments"),
        ('{"atoms": [[0.5, 1.0]]}', "atoms[0]"),
        ('{"atoms": [{"z": 0.5, "w": "heavy"}]}', "atoms[0].w"),
        ('{"segments": [{"l": 0, "r": 0.5, "v": "-1_0"}]}', "segments[0].v"),
        ('{"atoms": [{"z": 0.5, "w": true}]}', "atoms[0].w"),
        ('{"segments": [{"l": 0, "r": 0.5, "v": " 3 "}]}', "segments[0].v"),
        ('{"atoms": [{"z": 0.5, "w": 1%s}]}' % ("0" * 400), "atoms[0].w"),
        ("[]", "potential"),
    ],
)
def test_eigen_rejects_schema_violations(tmp_path, capsys, text, field):
    pot = tmp_path / "q.json"
    pot.write_text(text)
    code, out, err = run_cli(capsys, ["eigen", "--k0sq", "0", "--k1sq", "0", str(pot)])
    assert code == 2
    assert out == ""
    assert field in err


def test_scan_f_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scan-f", "--k0sq", "0", "--k1sq", "0", "--mu=-0.5,0,3", "--zeta=0:1:5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,zeta,in_domain,F,dF_dzeta"
    assert len(lines) == 16
    # mu=0 under Neumann gives identically zero strength
    zero_rows = [l for l in lines[1:] if l.startswith("0,")]
    assert all(r.split(",")[3] == "0" for r in zero_rows)
    # out-of-domain rows carry nan values
    out_rows = [l for l in lines[1:] if l.split(",")[2] == "0"]
    assert out_rows and all(r.split(",")[3] == "nan" for r in out_rows)


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
def test_scan_f_rejects_non_finite_mu(capsys, mu):
    code, out, err = run_cli(capsys, ["scan-f", "--k0sq", "0", "--k1sq", "0", f"--mu={mu}", "--zeta", "0.5"])
    assert code == 2
    assert out == ""
    assert err == f"robinsl: error: mu must be finite, got {mu}\n"


@pytest.mark.parametrize(
    "spec, message", [("0:1", "axis spec must be start:stop:count, got '0:1'"), ("0:1:0", "axis count must be >= 1")]
)
def test_scan_f_rejects_bad_axis_spec(capsys, spec, message):
    code, out, err = run_cli(capsys, ["scan-f", "--k0sq", "0", "--k1sq", "0", f"--mu={spec}", "--zeta", "0.5"])
    assert code == 2
    assert out == ""
    assert err == f"robinsl: error: {message}\n"


def test_verify_rejects_non_finite_coefficient(capsys):
    code, out, err = run_cli(capsys, ["verify", "--k0sq", "nan", "--k1sq", "0", "--n", "5"])
    assert code == 2
    assert out == ""
    assert err == "robinsl: error: boundary coefficients must be finite\n"


def test_verify_small(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--k0sq", "0", "--k1sq", "0", "--n", "50", "--seed", "9"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["n_samples"] == 100
    assert rep["violations"] == []
    assert rep["seed"] == 9
    assert set(rep["extremum_gaps"]) == {"M1plus", "M1minus", "m1plus", "m1minus"}


@pytest.mark.parametrize("k0, k1", [("1e155", "1e155"), ("1e300", "1e300"), ("1e160", "1e300")])
def test_verify_at_coefficients_whose_start_overflows(capsys, k0, k1):
    # (k0sq/sqrt(lam0))^2 overflows in the first-order start: the run still
    # passes, with no warning and nothing on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["verify", "--k0sq", k0, "--k1sq", k1, "--n", "20"])
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    assert json.loads(out)["violations"] == []


def test_verify_byte_stability(capsys):
    argv = ["verify", "--k0sq", "0.5", "--k1sq", "0.5", "--n", "25", "--seed", "4"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


_LAZY_SCIPY_PROBE = r"""
import contextlib, io, json, sys
from robinsl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["extrema", "--k0sq", "0.25", "--k1sq", "0.5"]),
        main(["verify", "--k0sq", "0.25", "--k1sq", "0.5", "--n", "5"]),
    ]
before = "scipy.linalg" in sys.modules
from robinsl import DeltaAtom, Potential, RobinBC, fd_lambda1
lam = fd_lambda1(Potential(atoms=(DeltaAtom(0.3, -1.0),)), RobinBC(0.25, 0.5), 200)
print(json.dumps({"codes": codes, "before": before, "lam": lam, "after": "scipy.linalg" in sys.modules}))
"""


def test_cli_runs_without_scipy_linalg(child_env):
    # a fresh interpreter: this process has scipy.linalg loaded already
    res = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_PROBE], env=child_env, capture_output=True, text=True, check=True
    )
    probe = json.loads(res.stdout)
    assert probe["codes"] == [0, 0]
    assert probe["before"] is False
    assert probe["lam"] == fd_lambda1(Potential(atoms=(DeltaAtom(0.3, -1.0),)), RobinBC(0.25, 0.5), 200)
    assert probe["after"] is True


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, ["extrema", "--k0sq", "0", "--k1sq", "0", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())


def test_fmt_float_12_digits():
    assert fmt_float(0.7401738843949670) == "0.740173884395"
    assert fmt_float(1.0) == "1"
    assert fmt_float(float("nan")) == "nan"


def test_dumps_fixed_order():
    assert dumps({"b": 1, "a": 2.5}) == '{"b": 1, "a": 2.5}\n'


def test_csv_lines_bools_and_floats():
    # a flag column (scan-f's in_domain) is 1.0 or 0.0 and prints as 1 or 0
    text = csv_lines(["a", "b"], np.array([[1.0, 0.25], [0.0, float("nan")]]))
    assert text == "a,b\n1,0.25\n0,nan\n"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--pieces-max", "0", "pieces_max"),
        ("--pieces-max", "-2", "pieces_max"),
        ("--pieces-max", "65", "pieces_max"),
        ("--n", "0", "--n"),
        ("--n", "-5", "--n"),
    ],
)
def test_verify_rejects_bad_counts(capsys, flag, value, named):
    code, out, err = run_cli(capsys, ["verify", "--k0sq", "0", "--k1sq", "0", "--n", "5", flag, value])
    assert code == 2
    assert out == ""
    assert err.startswith("robinsl: error: ") and named in err and value in err


def test_parser_built_once_per_process(capsys, monkeypatch):
    import argparse

    import robinsl.cli

    robinsl.cli.build_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert run_cli(capsys, ["extrema", "--k0sq", "0", "--k1sq", "0"])[0] == 0
    assert built.count("robinsl") == 1


@pytest.mark.parametrize("k0sq, k1sq", [("0.50000000001", "2"), ("0.5000001", "2"), ("3", "100")])
def test_extrema_interior_edges(capsys, k0sq, k1sq):
    # the plain zeta bisection exited 2 on the first (a crossing value below
    # the admissible floor) and the third (a stalled half-interval solve), and
    # printed an m1minus 2.6e-5 off its cross-check on the second
    code, out, err = run_cli(capsys, ["extrema", "--k0sq", k0sq, "--k1sq", k1sq])
    assert (code, err) == (0, "")
    rep = json.loads(out)[3]
    assert rep["branch"] == "m1minus/interior"
    assert abs(rep["value"] - rep["cross_check"]) <= 1e-12


# Large coefficients (ROADMAP Known defects, item 15): each cross-check started
# from the Rayleigh quotient, ~k1sq, and from k1sq ~ 1e80 its open-end search
# could not come down in 200 steps; started at the value, it closes at once
@pytest.mark.parametrize("k0sq, k1sq", [("0", "1e80"), ("0", "1e100"), ("0", "1e300"), ("1e100", "1e100"), ("1e300", "1e300")])
def test_extrema_large_coefficients(capsys, k0sq, k1sq):
    code, out, err = run_cli(capsys, ["extrema", "--k0sq", k0sq, "--k1sq", k1sq])
    assert (code, err) == (0, "")
    by_kind = {r["kind"]: r for r in json.loads(out)}
    for rep in by_kind.values():
        assert abs(rep["value"] - rep["cross_check"]) <= 1e-8 * max(1.0, abs(rep["value"])), rep["kind"]
    # the Dirichlet limits: Neumann-Dirichlet (pi/2)^2 where k0sq = 0, and
    # there m1minus's -delta_0 makes y = 1 - x exact at 0; Dirichlet-Dirichlet pi^2
    if float(k0sq) == 0.0:
        limits = {"M1minus": (math.pi / 2) ** 2, "m1plus": (math.pi / 2) ** 2, "m1minus": 0.0}
    else:
        limits = {"M1minus": math.pi**2, "m1plus": math.pi**2}
    for kind, limit in limits.items():
        assert abs(by_kind[kind]["value"] - limit) <= 1e-9, kind


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


@settings(max_examples=100, deadline=None)
@given(_MAGNITUDES, _MAGNITUDES)
def test_all_extrema_meet_their_cross_check_up_to_1e300(a, b):
    bc = RobinBC(min(a, b), max(a, b))
    for rep in all_extrema(bc):
        assert abs(rep.value - rep.cross_check) <= 1e-8 * max(1.0, abs(rep.value)), (bc, rep.kind)


@pytest.mark.xfail(strict=True, raises=ToleranceNotReached, reason="ROADMAP item 15: the Rayleigh start stalls")
def test_lambda1_value_solves_the_large_coefficient_plateau():
    # the same plateau the cross-check solves from its value stalls from
    # lambda1_value's start at the Rayleigh quotient, ~1e100
    bc = RobinBC(0.0, 1e100)
    rep = sup_plus(bc)
    assert abs(lambda1_value(rep.q_star, bc, 1e-12) - rep.value) <= 1e-9


_RESHOT_BC = RobinBC(0.45343828558878474, 1.0743245926269425)
_STUCK = {
    # lambda1 below the float range: the bracket never closes
    "deep_atom": (Potential(atoms=(DeltaAtom(0.5, -1e200),)), RobinBC(0.25, 0.5)),
    "deepest_atom": (Potential(atoms=(DeltaAtom(0.5, -1e308),)), RobinBC(0.25, 0.5)),
    # the sampler loses the decaying mode past a deep atom (ROADMAP item 5)
    "reshot_atom": (
        Potential(
            atoms=(DeltaAtom(0.518542003680756, delta_strength(-2671.197966284571, 0.518542003680756, _RESHOT_BC).value),)
        ),
        _RESHOT_BC,
    ),
    # the tall barrier of Known defects: the sampler overflows
    "barrier": (Potential(segments=(Segment(0.0, 0.5, 1e7),)), RobinBC(0.25, 0.5)),
    # a huge positive segment solves, but, like the tall barrier, its
    # eigenfunction sampling overflows
    "huge_segment": (Potential(segments=(Segment(0.0, 0.5, 1e200),)), RobinBC(0.25, 0.5)),
    # a deep atom before a tall plateau: the samples past the plateau go
    # far negative (Known defects), down to -1e63 beside a top of 3e-269
    "atom_plateau": (
        Potential(
            segments=(Segment(0.3690321538288696, 0.6965554349297658, 3181271.0490767015),),
            atoms=(DeltaAtom(0.29048040973932543, -1000.0),),
        ),
        RobinBC(0.0, 0.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_STUCK))
def test_eigen_failures_exit_2_without_traceback(capsys, tmp_path, name):
    q, bc = _STUCK[name]
    path = tmp_path / "q.json"
    path.write_text(json.dumps(potential_to_dict(q)))
    code, out, err = run_cli(capsys, ["eigen", "--k0sq", repr(bc.k0sq), "--k1sq", repr(bc.k1sq), str(path)])
    assert code == 2 and out == ""
    assert err.startswith("robinsl: error: ") and "Traceback" not in err


def _eigen_in_child(child_env, tmp_path, q, bc):
    # robinsl eigen in a fresh interpreter, whose stderr shows any numpy RuntimeWarning
    path = tmp_path / "q.json"
    path.write_text(json.dumps(potential_to_dict(q)))
    argv = [sys.executable, "-m", "robinsl.cli", "eigen", "--k0sq", repr(bc.k0sq), "--k1sq", repr(bc.k1sq), str(path)]
    return subprocess.run(argv, env=child_env, capture_output=True, text=True)


def test_eigen_midpoint_overflow_names_the_cause(child_env, tmp_path):
    # the sampler at lam = inf wrote three RuntimeWarnings, then "math domain error"
    res = _eigen_in_child(child_env, tmp_path, Potential(segments=(Segment(0.0, 1.0, 1e308),)), RobinBC(0.25, 0.5))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "robinsl: error: bracket midpoint overflowed: lam = inf\n"


def test_eigen_negative_sample_prints_only_its_error(child_env, tmp_path):
    # normalizing by the top sample overflowed on a far negative one, and
    # numpy's RuntimeWarning came before the error
    res = _eigen_in_child(child_env, tmp_path, *_STUCK["atom_plateau"])
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "robinsl: error: sampled eigenfunction is not strictly positive\n"


def test_eigen_solves_a_huge_atom(capsys, tmp_path):
    # the bracket [0, ~1e300] stalled in 200 halvings; its log-scale bisection
    # closes it.  The atom pins y(1/2) = 0, so lambda1 is within 1e-9 of the
    # left half's eigenvalue (test_eigensolver._PINNED["atom"])
    path = tmp_path / "q.json"
    path.write_text(json.dumps(potential_to_dict(Potential(atoms=(DeltaAtom(0.5, 1e300),)))))
    code, out, err = run_cli(capsys, ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", str(path)])
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["lambda1"] - 10.844725460113604) <= 1e-9


@pytest.mark.parametrize("k0sq, k1sq", [("0", "0"), ("0.25", "0.5"), ("1", "4")])
def test_scan_f_extreme_mu_has_finite_slope(capsys, k0sq, k1sq):
    # dF_dzeta overflowed (an OverflowError traceback, exit 1) for mu below
    # about -1.26e5 while F did not
    code, out, err = run_cli(
        capsys, ["scan-f", "--k0sq", k0sq, "--k1sq", k1sq, "--mu=-1e12,-1e9,-150000,-1e3,1e6,1e12", "--zeta=0:1:11"]
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 66
    for mu, _, in_domain, f, df in rows:
        if float(mu) < 0.0:
            assert in_domain == "1"
        # nan exactly outside the domain
        assert math.isfinite(float(f)) == math.isfinite(float(df)) == (in_domain == "1")

"""Command line front end.

Subcommands: ``eigen`` (solve one potential), ``extrema`` (the four extremal
values), ``scan-f`` (delta-strength table over a (mu, zeta) grid) and
``verify`` (randomized bound checking).  Output is machine readable (JSON or
CSV) and byte-stable for fixed inputs and seed.

Exit codes: 0 success, 1 verification found violations, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .eigensolver import lambda1
from .errors import RobinSLError
from .extrema import all_extrema
from .fmap import delta_strength
from .potential import RobinBC, potential_from_dict, potential_to_dict
from .serialize import csv_lines, dumps
from .verify import check_bounds

TOL_MIN, TOL_MAX = 1e-14, 1e-2


def _parse_axis(spec: str):
    """Axis values from 'start:stop:count' (inclusive) or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"axis spec must be start:stop:count, got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("axis count must be >= 1")
        return np.linspace(start, stop, count)
    return np.array([float(v) for v in spec.split(",")])


def _bc_from(args) -> RobinBC:
    return RobinBC(args.k0sq, args.k1sq)


def _check_tol(tol: float) -> float:
    if not TOL_MIN < tol < TOL_MAX:
        raise ValueError(f"tol must lie in ({TOL_MIN}, {TOL_MAX}), got {tol}")
    return tol


def _write(text: str, path: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_dict(rep) -> dict:
    return {
        "kind": rep.kind,
        "value": rep.value,
        "branch": rep.branch,
        "cross_check": rep.cross_check,
        "q_star": potential_to_dict(rep.q_star),
    }


def _cmd_eigen(args) -> int:
    bc = _bc_from(args)
    tol = _check_tol(args.tol)
    with open(args.potential) as fh:
        q = potential_from_dict(json.load(fh))
    res = lambda1(q, bc, tol)
    samples = np.column_stack((res.xs, res.ys))
    if args.format == "csv":
        text = csv_lines(["x", "y"], samples)
    else:
        text = dumps(
            {
                "lambda1": res.lambda1,
                "residual": res.residual,
                "bracket_width": res.bracket_width,
                "eigenfunction": samples,
            }
        )
    _write(text, args.output)
    return 0


def _cmd_extrema(args) -> int:
    tol = _check_tol(args.tol)
    if args.grid:
        k0s = _parse_axis(args.grid[0])
        k1s = _parse_axis(args.grid[1])
        # every pair is validated before the first (slow) solve
        grid = [(k0, k1, RobinBC(k0, k1)) for k0 in k0s for k1 in k1s]
        rows = np.array([[k0, k1] + [r.value for r in all_extrema(bc, tol)] for k0, k1, bc in grid])
        text = csv_lines(["k0sq", "k1sq", "M1plus", "M1minus", "m1plus", "m1minus"], rows)
    else:
        reps = all_extrema(_bc_from(args), tol)
        text = dumps([_report_dict(r) for r in reps])
    _write(text, args.output)
    return 0


def _cmd_scan_f(args) -> int:
    bc = _bc_from(args)
    rows = []
    for mu in _parse_axis(args.mu):
        for zeta in _parse_axis(args.zeta):
            # in_domain prints as 1 or 0; F and dF/dzeta are nan outside it
            p = delta_strength(mu, zeta, bc)
            rows.append([mu, zeta, float(p.in_domain), p.value, p.dzeta])
    _write(csv_lines(["mu", "zeta", "in_domain", "F", "dF_dzeta"], np.array(rows)), args.output)
    return 0


def _cmd_verify(args) -> int:
    bc = _bc_from(args)
    # an empty run would print a passing report
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    report = check_bounds(bc, args.n, args.pieces_max, args.seed)
    text = dumps(
        {
            "n_samples": report.n_samples,
            "seed": report.seed,
            "min_seen": report.min_seen,
            "max_seen": report.max_seen,
            "extremum_gaps": report.extremum_gaps,
            "violations": report.violations,
        }
    )
    _write(text, args.output)
    return 1 if report.violations else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building it takes ~1 ms).

    It keeps no state between parses; the ``_cmd_*`` handlers it dispatches
    to look up the library functions they call at call time.
    """
    p = argparse.ArgumentParser(
        prog="robinsl",
        description="First eigenvalues and extremal bounds for Robin problems "
        "with piecewise and delta potentials",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--k0sq", type=float, required=True, help="left coefficient k0^2")
        sp.add_argument("--k1sq", type=float, required=True, help="right coefficient k1^2")
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")

    sp = sub.add_parser("eigen", help="first eigenvalue of a potential JSON file")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-10, help="root-find tolerance")
    sp.add_argument("potential", help="path to a potential JSON file")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_eigen)

    sp = sub.add_parser("extrema", help="the four extremal values and potentials")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-10, help="root-find tolerance")
    sp.add_argument(
        "--grid",
        nargs=2,
        metavar=("K0SQ_LIST", "K1SQ_LIST"),
        help="CSV table over a coefficient grid (axes as comma lists or start:stop:count)",
    )
    sp.set_defaults(func=_cmd_extrema)

    sp = sub.add_parser("scan-f", help="delta-strength table over a (mu, zeta) grid")
    common(sp)
    sp.add_argument("--mu", required=True, help="mu axis, comma list or start:stop:count (use --mu=...)")
    sp.add_argument("--zeta", required=True, help="zeta axis, same syntax")
    sp.set_defaults(func=_cmd_scan_f)

    sp = sub.add_parser("verify", help="randomized check that eigenvalues respect the extrema")
    common(sp)
    sp.add_argument("--n", type=int, default=1000, help="samples per sign class")
    sp.add_argument("--pieces-max", type=int, default=8, help="max segments per sample")
    sp.add_argument("--seed", type=int, default=12345, help="master seed (reported)")
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RobinSLError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"robinsl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

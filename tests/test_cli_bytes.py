"""CLI output pinned byte for byte.

Each command runs in-process; the sha256 of its stdout, its stderr text and
its exit code must equal the values recorded when the output contract was
last declared.  A change to any printed digit, field order or separator
fails here; such a change must be declared and these values re-recorded.

``python tests/test_cli_bytes.py`` prints every pin with the sha256 of the
current output, in the format of PINNED below, ready to paste over it.
``--save DIR`` writes each pin's stdout to DIR/<name>.txt; ``--compare DIR``
runs the pins again and prints, for each, the largest change of a number
under each JSON key or CSV column against the saved output, so a declared
change of the last digits can be measured before the pins are re-recorded.
"""

import argparse
import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from robinsl.cli import main

README_POTENTIAL = '{"segments": [{"l": 0.0, "r": 0.25, "v": 2.0}], "atoms": [{"z": 0.5, "w": -1.0}]}'
# placeholder -> (file name, potential); the commands read the file
POTENTIALS = {
    "{pot}": ("q.json", README_POTENTIAL),
    # delta_strength(-100, 0.37, RobinBC(0.25, 0.5)): at lambda1 = -100 every cell is hyperbolic
    "{atom}": ("atom.json", '{"atoms": [{"z": 0.37, "w": -19.98831702911929}]}'),
    # both signs and an interior atom: trigonometric and hyperbolic cells at lambda1
    "{mixed}": (
        "mixed.json",
        '{"segments": [{"l": 0.1, "r": 0.3, "v": 6.0}, {"l": 0.3, "r": 0.55, "v": -9.0}, '
        '{"l": 0.7, "r": 0.9, "v": 4.0}], "atoms": [{"z": 0.62, "w": -1.5}]}',
    ),
    # breakpoints at k/2000 that np.linspace(0, 1, 2001) misses by one ulp
    # (all but 0.8), so union1d keeps both and two rows print the same x
    "{ulp}": (
        "ulp.json",
        '{"segments": [{"l": 0.0045, "r": 0.0065, "v": 6.0}, {"l": 0.4775, "r": 0.5015, "v": -8.0}, '
        '{"l": 0.5015, "r": 0.939, "v": 3.0}], "atoms": [{"z": 0.009, "w": -1.5}, {"z": 0.8, "w": 1.0}]}',
    ),
    # delta_strength(-562.341325190349, zeta, RobinBC(1.2800397168755726, 3.2429521130008903)):
    # a deep strength-map atom, whose solve takes ~50 shots
    "{deep}": ("deep.json", '{"atoms": [{"z": 0.11411219311240231, "w": -47.238266706641085}]}'),
}

PINNED = {
    "eigen_json": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "{pot}"],
        "3f4a1d97ace2c496a06a4508e4df25d465d06f1d15ebca70f06fd1dce19c0049",
    ),
    "eigen_csv": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "--format", "csv", "{pot}"],
        "377134641d2cd098b7cb405f6a92975de66d7578b5f61ffa75dcb738e4c3ded7",
    ),
    # the eigenfunction sampler's cell slices and both cell formulas
    "eigen_atom_hyperbolic": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "{atom}"],
        "726256865d00ab00c34ba7d50631cdc8c6e73ad9262b37bbbbb71f20c51fcf37",
    ),
    "eigen_mixed_sign": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "{mixed}"],
        "1ac91a2263051708f44a400281fe05221c78030d2492905303258644d55be8e6",
    ),
    "eigen_ulp_breakpoints": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "{ulp}"],
        "5d5fc7b2742c4e4d5fda3f7a01be97b98e1697b80da3393b2a4755d01e436f23",
    ),
    "eigen_ulp_breakpoints_csv": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "--format", "csv", "{ulp}"],
        "99cf3c251d4d7c17d9f0072a97189805ef786d3f84b425dd69fd05f5f6af7303",
    ),
    "eigen_deep_atom": (
        ["eigen", "--k0sq", "1.2800397168755726", "--k1sq", "3.2429521130008903", "{deep}"],
        "b71ea474310e41144017d950738281bb0c878506a320300afe32eeb4df226086",
    ),
    "extrema_0_0": (
        ["extrema", "--k0sq", "0", "--k1sq", "0"],
        "7aa8f2546e4e0bfcd5d80b5c61d1a596a4bb692414064c6bac5f1524d196432b",
    ),
    "extrema_half_half": (
        ["extrema", "--k0sq", "0.5", "--k1sq", "0.5"],
        "d42bd64629eb3e1b208e46ba19b8bc12fd87bb1b933bfe8be0e15ed0749ec378",
    ),
    "extrema_1_1": (
        ["extrema", "--k0sq", "1", "--k1sq", "1"],
        "8fc92dcb7ee6957867caccb25a9ff6bc7dde3d077840e0c1f005a598ca1f040c",
    ),
    "extrema_quarter_half": (
        ["extrema", "--k0sq", "0.25", "--k1sq", "0.5"],
        "6c2ca03f47dc51aeeaaf27f541c2fb9cb07fa853ee70bcebdb90cd5bfddf4162",
    ),
    "extrema_grid": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0:1:5", "1:3:7"],
        "fc0fb75a788384d989ddb6f4605c6847d1043e7f40ba70bcfa38b1b447df570b",
    ),
    # inf_minus's interior root-find: near k0sq = 1/2, at a finer tol, and a
    # grid on which every m1minus is an interior crossing
    "extrema_edge": (
        ["extrema", "--k0sq", "0.50001", "--k1sq", "2.3"],
        "f499f642f18e030d9570330d605b797d1ef8c6996fd8f3fb2f6e59c38f7e3cb7",
    ),
    "extrema_interior_tol12": (
        ["extrema", "--k0sq", "2", "--k1sq", "2.5", "--tol", "1e-12"],
        "8a0a49a1c186a93f93720b3febaca7c613959ddb72938db5f00f31a60faa4cb3",
    ),
    "extrema_grid_interior": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0.6:3:5", "3:4:3"],
        "e6a848348dfe8cfa92078ff334cad2ff932ab3e749ecd74e44eddd5190d6b22e",
    ),
    "scan_f_readme": (
        ["scan-f", "--k0sq", "1", "--k1sq", "1", "--mu=-2:3:11", "--zeta=0:1:21"],
        "5fcdd3afaa7e75d623da773c40d8b7869fb6a7bc2e489815877c05cf8df2e959",
    ),
    "verify": (
        ["verify", "--k0sq", "0.25", "--k1sq", "0.5", "--n", "200", "--seed", "20260809"],
        "cc6ef17f89b0c861ec91933d0231bf868335e07f040c404b62794ffe19e67c04",
    ),
    # the Dirichlet end, where y' = k0sq squared would overflow the first
    # cell's integral of y^2 unless the start is scaled: both pairs print the
    # same bytes, Dirichlet's eigenvalues to 12 digits
    "verify_1e155": (
        ["verify", "--k0sq", "1e155", "--k1sq", "1e155", "--n", "200", "--seed", "20260809"],
        "b4a736451cfe30e63d073c6c3e08e96f5be7d99d66d14923b5f44dd757b66fed",
    ),
    "verify_1e300": (
        ["verify", "--k0sq", "1e300", "--k1sq", "1e300", "--n", "200", "--seed", "20260809"],
        "b4a736451cfe30e63d073c6c3e08e96f5be7d99d66d14923b5f44dd757b66fed",
    ),
}


def _output(argv, workdir):
    """(stdout, stderr, exit code) of one pinned command."""
    paths = {}
    for key, (name, text) in POTENTIALS.items():
        paths[key] = Path(workdir) / name
        paths[key].write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(paths[a]) if a in paths else a for a in argv])
    return out.getvalue(), err.getvalue(), code


def _run(argv, workdir):
    """(sha256 of stdout, stderr, exit code) of one pinned command."""
    out, err, code = _output(argv, workdir)
    return hashlib.sha256(out.encode()).hexdigest(), err, code


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_KEY = re.compile(r'"(\w+)":')


def _labelled_numbers(text):
    """(label, value) of every number in text: its JSON key, or its CSV column."""
    header = text.split("\n", 1)[0].split(",")
    out = []
    for m in _NUMBER.finditer(text):
        keys = _KEY.findall(text, 0, m.start())
        if keys:
            label = keys[-1]
        else:
            line_start = text.rfind("\n", 0, m.start()) + 1
            label = header[min(text.count(",", line_start, m.start()), len(header) - 1)]
        out.append((label, float(m.group())))
    return out


def _largest_changes(old, new):
    """{label: (|change|, old number, new number)} of the most changed number under each label.

    None if the text around the numbers differs.
    """
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    out = {}
    for (label, a), (_, b) in zip(_labelled_numbers(old), _labelled_numbers(new)):
        if abs(b - a) > out.get(label, (0.0,))[0]:
            out[label] = (abs(b - a), a, b)
    return out


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_bytes_pinned(tmp_path, name):
    argv, want = PINNED[name]
    assert _run(argv, tmp_path) == (want, "", 0)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Print, save or compare the pinned CLI outputs.")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR", help="write each pin's stdout to DIR/<name>.txt")
    mode.add_argument("--compare", metavar="DIR", help="print each pin's largest numeric change against DIR")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for name, (argv, _) in PINNED.items():
            out, err, code = _output(argv, workdir)
            if err or code:
                sys.stderr.write(f"{name}: exit {code}: {err}")
            if args.save:
                Path(args.save).mkdir(parents=True, exist_ok=True)
                (Path(args.save) / f"{name}.txt").write_text(out)
            elif args.compare:
                changes = _largest_changes((Path(args.compare) / f"{name}.txt").read_text(), out)
                if changes is None:
                    print(f"{name}: the text around the numbers changed")
                elif not changes:
                    print(f"{name}: no number changed")
                else:
                    print(f"{name}: largest change by field:")
                    for label, (change, a, b) in sorted(changes.items(), key=lambda kv: -kv[1][0]):
                        print(f"    {label}: {change:.3e} ({a!r} -> {b!r})")
            else:
                digest = hashlib.sha256(out.encode()).hexdigest()
                print(f'    "{name}": (\n        {json.dumps(argv)},\n        "{digest}",\n    ),')

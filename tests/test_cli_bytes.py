"""CLI output pinned byte for byte.

Each command runs in-process; the sha256 of its stdout, its stderr text and
its exit code must equal the values recorded when the output contract was
last declared.  A change to any printed digit, field order or separator
fails here; such a change must be declared and these values re-recorded.

``python tests/test_cli_bytes.py`` prints every pin with the sha256 of the
current output, in the format of PINNED below, ready to paste over it.
"""

import hashlib
import io
import json
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
}

PINNED = {
    "eigen_json": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "{pot}"],
        "dd8344259790e53b19e8e46fd47ba8d927df948575964fd887bbcb75415536a0",
    ),
    "eigen_csv": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "--format", "csv", "{pot}"],
        "e5a09f24891836676f04bbe92faf71ae84f5aff906725ebeb8ada74aea5c444d",
    ),
    # the eigenfunction sampler's cell slices and both cell formulas
    "eigen_atom_hyperbolic": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "{atom}"],
        "b73755fce2fd341cd635521c90e7c4773cdb29bc5af12dfaaabc9aa7f5e5d865",
    ),
    "eigen_mixed_sign": (
        ["eigen", "--k0sq", "0.25", "--k1sq", "0.5", "{mixed}"],
        "36455e981cc3e7c0d0f4674b2af98655ac530aeb92f308a172881a9b745dc4cb",
    ),
    "extrema_0_0": (
        ["extrema", "--k0sq", "0", "--k1sq", "0"],
        "bfe82e66774382d56d23b0acf149980583f074d25f626f5b5289d59effdbf1a0",
    ),
    "extrema_half_half": (
        ["extrema", "--k0sq", "0.5", "--k1sq", "0.5"],
        "b1b8a182f1eebf439435cea78eb9f630522ce8fe553608649f6e58228e8fd91e",
    ),
    "extrema_1_1": (
        ["extrema", "--k0sq", "1", "--k1sq", "1"],
        "1378b260fa2d9a08e2cdcbe30abae6e56ab3fec30b2f543f1c6eeb54944fc4cb",
    ),
    "extrema_quarter_half": (
        ["extrema", "--k0sq", "0.25", "--k1sq", "0.5"],
        "45a5c3bd9cb28f09427fb05a089b304dc657951506c37249f46cdb101391ed48",
    ),
    "extrema_grid": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0:1:5", "1:3:7"],
        "3e441c73457e8d85de14a58f1d2a071b55f289656a900f75743b32bbc763d026",
    ),
    # inf_minus's interior root-find: near k0sq = 1/2, at a finer tol, and a
    # grid on which every m1minus is an interior crossing
    "extrema_edge": (
        ["extrema", "--k0sq", "0.50001", "--k1sq", "2.3"],
        "870582b38ab2ebe833f6fbd6887abd69ab4708ca28d484b8c21e4b003dd3351b",
    ),
    "extrema_interior_tol12": (
        ["extrema", "--k0sq", "2", "--k1sq", "2.5", "--tol", "1e-12"],
        "8a0a49a1c186a93f93720b3febaca7c613959ddb72938db5f00f31a60faa4cb3",
    ),
    "extrema_grid_interior": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0.6:3:5", "3:4:3"],
        "9d4a6954bb39d617731a23ec4f0e04e4a03da41c30d01978cc36953238c7a4dc",
    ),
    "scan_f_readme": (
        ["scan-f", "--k0sq", "1", "--k1sq", "1", "--mu=-2:3:11", "--zeta=0:1:21"],
        "5fcdd3afaa7e75d623da773c40d8b7869fb6a7bc2e489815877c05cf8df2e959",
    ),
    "verify": (
        ["verify", "--k0sq", "0.25", "--k1sq", "0.5", "--n", "200", "--seed", "20260809"],
        "3619249896c177ec67625a758752af9bdad07df17b539874ac294daf81c4cc38",
    ),
}


def _run(argv, workdir):
    """(sha256 of stdout, stderr, exit code) of one pinned command."""
    paths = {}
    for key, (name, text) in POTENTIALS.items():
        paths[key] = Path(workdir) / name
        paths[key].write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(paths[a]) if a in paths else a for a in argv])
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_bytes_pinned(tmp_path, name):
    argv, want = PINNED[name]
    assert _run(argv, tmp_path) == (want, "", 0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name, (argv, _) in PINNED.items():
            digest, err, code = _run(argv, workdir)
            if err or code:
                sys.stderr.write(f"{name}: exit {code}: {err}")
            print(f'    "{name}": (\n        {json.dumps(argv)},\n        "{digest}",\n    ),')

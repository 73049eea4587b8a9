"""CLI output pinned byte for byte.

Each command runs in-process; the sha256 of its stdout, its stderr text and
its exit code must equal the values recorded when the output contract was
last declared.  A change to any printed digit, field order or separator
fails here; such a change must be declared and these values re-recorded.
"""

import hashlib

import pytest

from robinsl.cli import main

README_POTENTIAL = '{"segments": [{"l": 0.0, "r": 0.25, "v": 2.0}], "atoms": [{"z": 0.5, "w": -1.0}]}'

PINNED = {
    "eigen_json": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "{pot}"],
        "a20dc68ede9fbaa63a04266367db97c81f75a1a70292ed28e3fc51e6bd9efce6",
    ),
    "eigen_csv": (
        ["eigen", "--k0sq", "0.5", "--k1sq", "0.5", "--format", "csv", "{pot}"],
        "7da430e64dd02c25ab6c9bd6b8aabbc82405b037a5c1ab0a2e9ff7ceeb030f1c",
    ),
    "extrema_0_0": (
        ["extrema", "--k0sq", "0", "--k1sq", "0"],
        "7aa8f2546e4e0bfcd5d80b5c61d1a596a4bb692414064c6bac5f1524d196432b",
    ),
    "extrema_half_half": (
        ["extrema", "--k0sq", "0.5", "--k1sq", "0.5"],
        "d5fc9846be405fecbdf79d3ce9951f63275702a63faabddd9208ead2d599cdb7",
    ),
    "extrema_1_1": (
        ["extrema", "--k0sq", "1", "--k1sq", "1"],
        "013d8a153cf30899d8aa291f16b1e289c37f4d2f0942eeb5b09447e172bb6d51",
    ),
    "extrema_quarter_half": (
        ["extrema", "--k0sq", "0.25", "--k1sq", "0.5"],
        "5afb51c9525aa9b66fc1756c9bacf3919632de5c884aa09b45a809394a5a3dd0",
    ),
    "extrema_grid": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0:1:5", "1:3:7"],
        "eba9067df4d65151be43d18a72cb335d24c47b87f07afc4431b5410b9c7f12bf",
    ),
    # inf_minus's interior root-find: near k0sq = 1/2, at a finer tol, and a
    # grid on which every m1minus is an interior crossing
    "extrema_edge": (
        ["extrema", "--k0sq", "0.50001", "--k1sq", "2.3"],
        "e2be3d9d67b3bdd647ac9a76af1c529f956e103845123abcc61b2c4a3ff6b642",
    ),
    "extrema_interior_tol12": (
        ["extrema", "--k0sq", "2", "--k1sq", "2.5", "--tol", "1e-12"],
        "77ef53ba66ed3559038f18219d738e729836b1bbba51e3a2d90837a0b0c9dd19",
    ),
    "extrema_grid_interior": (
        ["extrema", "--k0sq", "0", "--k1sq", "0", "--grid", "0.6:3:5", "3:4:3"],
        "f4af8b04c5a8b2918a58e89d330e949abcb0b40ffb0c2813c7fd94f5fa4d6890",
    ),
    "scan_f_readme": (
        ["scan-f", "--k0sq", "1", "--k1sq", "1", "--mu=-2:3:11", "--zeta=0:1:21"],
        "5fcdd3afaa7e75d623da773c40d8b7869fb6a7bc2e489815877c05cf8df2e959",
    ),
    "verify": (
        ["verify", "--k0sq", "0.25", "--k1sq", "0.5", "--n", "200", "--seed", "20260809"],
        "a3850e561b5d29f3d1a57a0c46f1e607bf02aedd80bbb14ebdfafa59255d700b",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_bytes_pinned(tmp_path, capsys, name):
    pot = tmp_path / "q.json"
    pot.write_text(README_POTENTIAL)
    argv, want = PINNED[name]
    code = main([a.replace("{pot}", str(pot)) for a in argv])
    out = capsys.readouterr()
    assert (hashlib.sha256(out.out.encode()).hexdigest(), out.err, code) == (want, "", 0)

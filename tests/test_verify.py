import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from robinsl import (
    RobinBC,
    ZeroMass,
    approach_extremum,
    check_bounds,
    sample_unit_mass,
)
from robinsl._rng import derive_seeds, stream, units
from robinsl.extrema import _eig0
from robinsl.potential import compile_arrays, potential_to_dict, total_integral
from robinsl.verify import _count, _lanes, _potential, regenerate
from test_block_draw import _row_tables, _segments


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# sha256 of the potentials of test_violations_carry_the_drawn_potential, by
# concentrated, recorded before the sampler wrote cell tables directly
VIOLATIONS = {
    False: "3e6803e668a4cad802cbdad96da3d7403c4168a491e7ff9d2f1811044c5f24d2",
    True: "bca9d85e5fdbd905268df6f9eb8266dd1631712d219e1898f861c7b35ca98a4a",
}

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]

# sha256 of the check_bounds reports at seed 20260809 over BC_GRID6 x n in
# (1, 33, 250), as JSON of dataclasses.asdict (floats by repr), by
# (pieces_max, concentrated); recorded while each sample was drawn, tabled
# and started one at a time
REPORTS = {
    (1, False): "771528aed2a7e4b8066adb67779429bc5a82e593850f2b81541002dc01a2737a",
    (1, True): "28bc132cdff00096655e719c028b56196ba459031a761b4f631842f4feb6c6ff",
    (8, False): "54326898590b1d87d678def47424e5031fc9a1cd7fc894c64014b1cbe3a37bb0",
    (8, True): "c198d3d37a5510dd9b2653f628d054412fad8a771bc0c58411688b0550357ceb",
    (16, False): "ed75967c5d2ef4cd1e4563e9de64c59de5228bbb84e4922b0b29fd1ce16194c6",
    (16, True): "4dedcd4e775d66ebd76aba0bff8508f5772103311cc9d2b7338ba817bfe7f652",
    (64, False): "8096c01ed0209f5f1d60132679810b3c904a1785d86959e9f81f4928555f9d42",
    (64, True): "ca5ec01dcf44e25f622be649d252b39f775030f41eb9e63147507d183ef98d49",
}


def test_samples_pinned():
    # a report names each sample by (seed, tag, index), so the sampler must
    # draw the same potential, to the bit, from the same seed on any version.
    # Recorded with one stream call per uniform, before the draw took them
    # all from one pass of the stream
    samples = [
        potential_to_dict(sample_unit_mass(pieces, seed, sign, concentrated))
        for pieces in (1, 8, 16, 64)
        for sign in (1, -1)
        for concentrated in (False, True)
        for seed in range(50)
    ]
    assert _sha256(samples) == "3bd961baa43073f40836089eac3d18711f0229e2f7d9879bff4be3a0a9e38580"


def test_stream_pinned():
    # the sub-seeds of derive_seeds and three raw streams, recorded with the
    # same sampler as test_samples_pinned
    subs = [
        derive_seeds(seed, tag, i, i + 1).item() for seed in (0, 1, 20260809) for tag in (0, 1) for i in (0, 1, 999)
    ]
    streams = stream(np.array([0, 20260809, 2**64 - 1], dtype=np.uint64), 0, 1000).tolist()
    assert _sha256([subs, streams]) == "3df4ee6e416ede5920712be2c011dadcba1c46122055f4ba51f68e2417c5cde9"


def test_sampler_tables_are_the_potential_tables():
    # check_bounds builds each sample's cell tables in its lane arrays,
    # without a Potential; they must be the tables of the Potential that
    # regenerate draws for that sample, bit for bit.  2400 draws
    bc = RobinBC(0.25, 0.5)
    lam0 = _eig0(bc.k0sq, bc.k1sq)
    for concentrated in (False, True):
        for pieces_max in (1, 8, 16, 64):
            for tag in (0, 1):
                blocks = _lanes(20260809, tag, 0, 150, pieces_max, concentrated, bc.k0sq, lam0)
                lanes = [t for *block, _ in blocks for t in _row_tables(*block)]
                assert len(lanes) == 150
                for index, tables in enumerate(lanes):
                    *arrays, k0, k1 = compile_arrays(regenerate(20260809, tag, index, pieces_max, concentrated), bc)
                    assert (k0, k1) == (bc.k0sq, bc.k1sq)
                    for got, want in zip(tables, arrays):
                        assert all(type(x) is float for x in got)
                        assert struct.pack(f"{len(got)}d", *got) == struct.pack(f"{len(want)}d", *want)


@pytest.mark.parametrize("concentrated", [False, True])
def test_seeds_wrap_to_64_bits(concentrated):
    for pieces in (1, 8, 64):
        for sign in (1, -1):
            want = sample_unit_mass(pieces, 2**64 - 1, sign, concentrated)
            assert sample_unit_mass(pieces, -1, sign, concentrated) == want
            assert sample_unit_mass(pieces, 2**65 - 1, sign, concentrated) == want
    reports = [
        dataclasses.asdict(check_bounds(RobinBC(0.25, 0.5), 40, 8, seed, concentrated)) for seed in (-1, 2**64 - 1)
    ]
    assert reports[0].pop("seed") == -1 and reports[1].pop("seed") == 2**64 - 1
    assert reports[0] == reports[1]


def test_violations_carry_the_drawn_potential(monkeypatch):
    # bounds moved out of reach make every sample a violation; each one
    # carries its potential as the schema dict, the same bytes as before the
    # sampler wrote cell tables directly
    import robinsl.verify as V

    real = V.all_extrema

    def unreachable(bc):
        return [dataclasses.replace(r, value=1e9 if r.kind[0] == "m" else -1e9) for r in real(bc)]

    monkeypatch.setattr(V, "all_extrema", unreachable)
    for concentrated in (False, True):
        report = check_bounds(RobinBC(0.25, 0.5), 30, 16, 7, concentrated)
        assert [v["bound"] for v in report.violations] == ["m1plus"] * 30 + ["m1minus"] * 30
        got = _sha256([v["potential"] for v in report.violations])
        assert got == VIOLATIONS[concentrated]


@pytest.mark.parametrize("pieces_max, concentrated", sorted(REPORTS))
def test_reports_pinned(pieces_max, concentrated):
    # n = 33 straddles a block of the sample stream
    reports = [
        dataclasses.asdict(check_bounds(RobinBC(k0, k1), n, pieces_max, 20260809, concentrated))
        for k0, k1 in BC_GRID6
        for n in (1, 33, 250)
    ]
    assert _sha256(reports) == REPORTS[pieces_max, concentrated]


@pytest.mark.parametrize("concentrated", [False, True])
def test_failed_first_attempt_draws_on(monkeypatch, concentrated):
    # a first attempt with no mass goes on with _draw's next attempt, on the
    # uniforms that follow it in the same stream: the sample is the second
    # attempt's.  The block draw reports the first attempt of the first
    # block's first lane massless wherever it meets those uniforms, as it
    # reports a row whose heights are all 0, so regenerate draws the same
    # sample for the report
    import robinsl.verify as V

    real_block, real_extrema = V._block, V.all_extrema
    failed = []

    def fail_first(u, pieces, sign, concentrated):
        edges, vals, odd = real_block(u, pieces, sign, concentrated)
        if not failed:
            failed.append((u[0, : _count(pieces[0], concentrated)].tolist(), pieces[0], sign, concentrated))
        for r, p in enumerate(pieces):
            if (u[r, : _count(p, concentrated)].tolist(), p, sign, concentrated) == failed[0]:
                odd[r] = None
        return edges, vals, odd

    def unreachable(bc):
        return [dataclasses.replace(r, value=1e9 if r.kind[0] == "m" else -1e9) for r in real_extrema(bc)]

    monkeypatch.setattr(V, "_block", fail_first)
    monkeypatch.setattr(V, "all_extrema", unreachable)
    report = check_bounds(RobinBC(0.25, 0.5), 3, 16, 7, concentrated)
    sub = derive_seeds(7, 0, 0, 1)
    skip, pieces = (0, 16) if concentrated else (1, 1 + stream(sub, 0, 1).item() % 16)
    count = 3 * pieces + (0 if concentrated else 1)
    assert list(failed[0][1:]) == [pieces, 1, concentrated]
    (u,) = units(stream(sub, skip, 2 * count)).tolist()
    assert failed[0][0][:count] == u[:count]
    want = _segments(u[count:], pieces, 1, concentrated)
    assert report.violations[0]["potential"] == potential_to_dict(_potential(want))
    # the other samples are drawn as without the failure
    monkeypatch.setattr(V, "_block", real_block)
    again = check_bounds(RobinBC(0.25, 0.5), 3, 16, 7, concentrated)
    assert again.violations[1:] == report.violations[1:]
    assert again.violations[0] != report.violations[0]


@pytest.mark.parametrize("concentrated", [False, True])
def test_violations_regenerate(monkeypatch, concentrated):
    # every violation of a report names its sample by (seed, tag, index);
    # regenerate draws that sample's potential again, as the schema dict
    import robinsl.verify as V

    real = V.all_extrema

    def unreachable(bc):
        return [dataclasses.replace(r, value=1e9 if r.kind[0] == "m" else -1e9) for r in real(bc)]

    monkeypatch.setattr(V, "all_extrema", unreachable)
    for pieces_max in (1, 16, 64):
        report = check_bounds(RobinBC(0.25, 0.5), 40, pieces_max, 7, concentrated)
        assert len(report.violations) == 80
        for k, v in enumerate(report.violations):
            tag, index = divmod(k, 40)
            q = regenerate(report.seed, tag, index, pieces_max, concentrated)
            assert potential_to_dict(q) == v["potential"], (pieces_max, tag, index)


def test_sample_is_deterministic():
    a = sample_unit_mass(5, 42, 1)
    b = sample_unit_mass(5, 42, 1)
    assert a == b
    c = sample_unit_mass(5, 43, 1)
    assert a != c


def test_sample_single_piece_is_one_segment():
    q = sample_unit_mass(1, 7, 1)
    assert len(q.segments) == 1
    assert q.atoms == ()
    assert 0.0 <= q.segments[0].left < q.segments[0].right <= 1.0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("pieces", [1, 3, 16])
def test_sample_mass_is_sign(pieces, sign):
    for seed in (0, 1, 999):
        q = sample_unit_mass(pieces, seed, sign)
        assert total_integral(q) == pytest.approx(sign, abs=1e-12)
        assert all(s.value * sign > 0.0 for s in q.segments)


def test_sample_concentrated_support_is_narrow():
    q = sample_unit_mass(16, 5, 1, concentrated=True)
    width = q.segments[-1].right - q.segments[0].left
    assert width <= 1.0 / 16.0 + 1e-12


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_unit_mass(0, 1, 1)
    with pytest.raises(ValueError):
        sample_unit_mass(65, 1, 1)
    with pytest.raises(ValueError):
        sample_unit_mass(4, 1, 0)


def test_massless_draws_raise_zero_mass(monkeypatch):
    # a sample whose every attempt leaves no mass fails after _TRIES of them
    import robinsl.verify as V

    real_block = V._block
    attempts = []

    def massless(u, pieces, sign, concentrated):
        edges, vals, _ = real_block(u, pieces, sign, concentrated)
        attempts.append(len(pieces))
        return edges, vals, {r: None for r in range(len(pieces))}

    monkeypatch.setattr(V, "_block", massless)
    with pytest.raises(ZeroMass, match="^could not draw a potential with positive mass$"):
        sample_unit_mass(4, 1, 1)
    assert attempts == [1] * V._TRIES


def test_check_bounds_empty():
    report = check_bounds(RobinBC(0.0, 0.0), 0, 8, 1)
    assert report.n_samples == 0
    assert report.violations == []
    assert report.min_seen is None and report.max_seen is None


def test_check_bounds_small_run():
    bc = RobinBC(0.25, 0.5)
    report = check_bounds(bc, 200, 8, 20260809)
    assert report.n_samples == 400
    assert report.violations == []
    assert report.seed == 20260809
    # sampled eigenvalues live strictly inside the closed-form bounds
    assert report.min_seen is not None and report.max_seen is not None
    gaps = report.extremum_gaps
    assert set(gaps) == {"M1plus", "M1minus", "m1plus", "m1minus"}
    assert all(g is not None and g > 0.0 for g in gaps.values())


def test_check_bounds_neumann_window():
    report = check_bounds(RobinBC(0.0, 0.0), 100, 6, 3)
    assert report.violations == []
    assert report.max_seen <= 1.0 + 1e-7  # positive-class supremum at (0, 0)


def test_approach_plateau_extremum_is_exact():
    rows = approach_extremum(RobinBC(0.25, 0.5), "M1plus", 6)
    assert [r[0] for r in rows] == [4, 8, 16, 32, 64]
    for _, _, gap in rows:
        assert gap <= 1e-8


@pytest.mark.parametrize(
    "bc,kind",
    [
        (RobinBC(0.0, 0.0), "m1plus"),
        (RobinBC(0.5, 0.5), "m1minus"),
        (RobinBC(0.25, 0.5), "M1minus"),
    ],
)
def test_approach_delta_extrema_monotone(bc, kind):
    rows = approach_extremum(bc, kind, 12)
    gaps = [g for _, _, g in rows]
    assert all(g > 0.0 for g in gaps)
    last = gaps[-5:]
    assert all(a > b for a, b in zip(last, last[1:]))
    assert gaps[-1] < 1e-3


def test_approach_m1plus_neumann_limit():
    rows = approach_extremum(RobinBC(0.0, 0.0), "m1plus", 12)
    n, lam, gap = rows[-1]
    assert n == 4096
    assert lam == pytest.approx(0.740173884394967, abs=1e-3)
    assert gap < 1e-3


def test_concentrated_sampling_shrinks_infimum_margin():
    # the flat infimum at (0.5, 0.5) makes the margin depend only on support
    # width, so shrinking windows must close in on it
    bc = RobinBC(0.5, 0.5)
    margins = []
    for pieces_max in (2, 8, 32):
        rep = check_bounds(bc, 150, pieces_max, 11, concentrated=True)
        assert rep.violations == []
        margins.append(rep.min_seen - (-0.25))
    assert all(m > 0.0 for m in margins)
    assert margins[2] < margins[1] < margins[0]


def test_depth_limits():
    with pytest.raises(ValueError):
        approach_extremum(RobinBC(0.0, 0.0), "m1plus", 15)
    with pytest.raises(ValueError):
        approach_extremum(RobinBC(0.0, 0.0), "nope", 8)


@pytest.mark.parametrize(
    "n, pieces_max, named", [(-1, 8, "n must"), (5, 0, "pieces_max"), (5, -2, "pieces_max"), (5, 65, "pieces_max")]
)
def test_check_bounds_rejects_bad_counts(n, pieces_max, named):
    with pytest.raises(ValueError, match=named):
        check_bounds(RobinBC(0.0, 0.0), n, pieces_max, 1)

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from robinsl import (
    Potential,
    RobinBC,
    ZeroMass,
    all_extrema,
    check_bounds,
    lambda1_value,
    sample_unit_mass,
)
from robinsl._rng import derive_seeds, stream, units
from robinsl.extrema import _eig0
from robinsl.potential import compile_arrays, potential_to_dict
from robinsl.verify import _count, _lanes, _potential, regenerate
from oracles import combine, delta_approx, total_integral
from test_block_draw import _row_tables, _segments, concentrated_sample


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# sha256 of the potentials of test_violations_carry_the_drawn_potential,
# recorded before the sampler wrote cell tables directly
VIOLATIONS = "3e6803e668a4cad802cbdad96da3d7403c4168a491e7ff9d2f1811044c5f24d2"

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]

# sha256 of the check_bounds reports at seed 20260809 over BC_GRID6 x n in
# (1, 33, 250), as JSON of dataclasses.asdict (floats by repr), by
# pieces_max; recorded while each sample was drawn, tabled and started one at
# a time
REPORTS = {
    1: "771528aed2a7e4b8066adb67779429bc5a82e593850f2b81541002dc01a2737a",
    8: "54326898590b1d87d678def47424e5031fc9a1cd7fc894c64014b1cbe3a37bb0",
    16: "ed75967c5d2ef4cd1e4563e9de64c59de5228bbb84e4922b0b29fd1ce16194c6",
    64: "8096c01ed0209f5f1d60132679810b3c904a1785d86959e9f81f4928555f9d42",
}


def test_samples_pinned():
    # a report names each sample by (seed, tag, index), so the sampler must
    # draw the same potential, to the bit, from the same seed on any version.
    # Recorded with one stream call per uniform, before the draw took them
    # all from one pass of the stream.  Each plain sample sits beside the
    # concentrated one the sampler then drew on the same seed, which
    # concentrated_sample draws now
    samples = [
        potential_to_dict(draw(pieces, seed, sign))
        for pieces in (1, 8, 16, 64)
        for sign in (1, -1)
        for draw in (sample_unit_mass, concentrated_sample)
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
    # regenerate draws for that sample, bit for bit.  1200 draws
    bc = RobinBC(0.25, 0.5)
    lam0 = _eig0(bc.k0sq, bc.k1sq)
    for pieces_max in (1, 8, 16, 64):
        # both classes in one batch, each row drawn with its class's sign
        runs = [(0, 0, 150), (1, 0, 150)]
        tags, index, *block, _ = _lanes(20260809, runs, pieces_max, bc.k0sq, lam0)
        lanes = _row_tables(*block)
        assert len(lanes) == 300
        assert tags.tolist() == [0] * 150 + [1] * 150 and index.tolist() == [*range(150)] * 2
        for tag, i, tables in zip(tags.tolist(), index.tolist(), lanes):
            *arrays, k0, k1 = compile_arrays(regenerate(20260809, tag, i, pieces_max), bc)
            assert (k0, k1) == (bc.k0sq, bc.k1sq)
            for got, want in zip(tables, arrays):
                assert all(type(x) is float for x in got)
                assert struct.pack(f"{len(got)}d", *got) == struct.pack(f"{len(want)}d", *want)


# the ids of the parametrized tests below end in "False", the plain draw's,
# as they did beside the concentrated draw that the sampler no longer has
@pytest.mark.parametrize("bc", [RobinBC(0.25, 0.5)], ids=["False"])
def test_seeds_wrap_to_64_bits(bc):
    for pieces in (1, 8, 64):
        for sign in (1, -1):
            want = sample_unit_mass(pieces, 2**64 - 1, sign)
            assert sample_unit_mass(pieces, -1, sign) == want
            assert sample_unit_mass(pieces, 2**65 - 1, sign) == want
    reports = [dataclasses.asdict(check_bounds(bc, 40, 8, seed)) for seed in (-1, 2**64 - 1)]
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
    report = check_bounds(RobinBC(0.25, 0.5), 30, 16, 7)
    assert [v["bound"] for v in report.violations] == ["m1plus"] * 30 + ["m1minus"] * 30
    assert _sha256([v["potential"] for v in report.violations]) == VIOLATIONS


@pytest.mark.parametrize("pieces_max", sorted(REPORTS), ids=lambda p: f"{p}-False")
def test_reports_pinned(pieces_max):
    # one lockstep batch a call, two at --pieces-max 64 and n = 250 (489
    # samples to a batch); test_batch_size_changes_no_report splits more
    reports = [
        dataclasses.asdict(check_bounds(RobinBC(k0, k1), n, pieces_max, 20260809))
        for k0, k1 in BC_GRID6
        for n in (1, 33, 250)
    ]
    assert _sha256(reports) == REPORTS[pieces_max]


@pytest.mark.parametrize("bc", [RobinBC(0.25, 0.5)], ids=["False"])
def test_failed_first_attempt_draws_on(monkeypatch, bc):
    # a first attempt with no mass goes on with _draw's next attempt, on the
    # uniforms that follow it in the same stream: the sample is the second
    # attempt's.  The batch draw reports the first attempt of the first
    # batch's first lane massless wherever it meets those uniforms, as it
    # reports a row whose heights are all 0, so regenerate draws the same
    # sample for the report
    import robinsl.verify as V

    real_block, real_extrema = V._block, V.all_extrema
    failed = []

    def fail_first(u, pieces, sign):
        edges, vals, odd = real_block(u, pieces, sign)
        signs = np.broadcast_to(sign, len(pieces)).tolist()
        if not failed:
            failed.append((u[0, : _count(pieces[0])].tolist(), pieces[0], signs[0]))
        for r, p in enumerate(pieces):
            if (u[r, : _count(p)].tolist(), p, signs[r]) == failed[0]:
                odd[r] = None
        return edges, vals, odd

    def unreachable(bc):
        return [dataclasses.replace(r, value=1e9 if r.kind[0] == "m" else -1e9) for r in real_extrema(bc)]

    monkeypatch.setattr(V, "_block", fail_first)
    monkeypatch.setattr(V, "all_extrema", unreachable)
    report = check_bounds(bc, 3, 16, 7)
    sub = derive_seeds(7, 0, 0, 1)
    pieces = 1 + stream(sub, 0, 1).item() % 16
    count = 3 * pieces + 1
    assert list(failed[0][1:]) == [pieces, 1]
    (u,) = units(stream(sub, 1, 2 * count)).tolist()
    assert failed[0][0][:count] == u[:count]
    want = _segments(u[count:], pieces, 1, False)
    assert report.violations[0]["potential"] == potential_to_dict(_potential(want))
    # the other samples are drawn as without the failure
    monkeypatch.setattr(V, "_block", real_block)
    again = check_bounds(bc, 3, 16, 7)
    assert again.violations[1:] == report.violations[1:]
    assert again.violations[0] != report.violations[0]


@pytest.mark.parametrize("bc", [RobinBC(0.25, 0.5)], ids=["False"])
def test_violations_regenerate(monkeypatch, bc):
    # every violation of a report names its sample by (seed, tag, index);
    # regenerate draws that sample's potential again, as the schema dict
    import robinsl.verify as V

    real = V.all_extrema

    def unreachable(bc):
        return [dataclasses.replace(r, value=1e9 if r.kind[0] == "m" else -1e9) for r in real(bc)]

    monkeypatch.setattr(V, "all_extrema", unreachable)
    for pieces_max in (1, 16, 64):
        report = check_bounds(bc, 40, pieces_max, 7)
        assert len(report.violations) == 80
        for k, v in enumerate(report.violations):
            tag, index = divmod(k, 40)
            q = regenerate(report.seed, tag, index, pieces_max)
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

    def massless(u, pieces, sign):
        edges, vals, _ = real_block(u, pieces, sign)
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


def _approach(bc, kind, depth):
    """(n, lambda1(q_n), |lambda1(q_n) - extremum|) for n = 2**2 .. 2**depth.

    q_n is the extremal potential of kind with each point mass replaced by
    its box of width 1/n; its summable part is kept as it is, so for the
    plateau extremum q_n is the extremal potential itself.
    """
    rep = {r.kind: r for r in all_extrema(bc)}[kind]
    q = rep.q_star
    out = []
    for k in range(2, depth + 1):
        n = 2**k
        qn = q
        if q.atoms:
            parts = [delta_approx(a.position, n, a.weight) for a in q.atoms]
            if q.segments:
                parts.append(Potential(segments=q.segments))
            qn = combine(*parts)
        lam = lambda1_value(qn, bc)
        out.append((n, lam, abs(lam - rep.value)))
    return out


def test_approach_plateau_extremum_is_exact():
    rows = _approach(RobinBC(0.25, 0.5), "M1plus", 6)
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
    rows = _approach(bc, kind, 12)
    gaps = [g for _, _, g in rows]
    assert all(g > 0.0 for g in gaps)
    last = gaps[-5:]
    assert all(a > b for a, b in zip(last, last[1:]))
    assert gaps[-1] < 1e-3


def test_approach_m1plus_neumann_limit():
    rows = _approach(RobinBC(0.0, 0.0), "m1plus", 12)
    n, lam, gap = rows[-1]
    assert n == 4096
    assert lam == pytest.approx(0.740173884394967, abs=1e-3)
    assert gap < 1e-3


@pytest.mark.parametrize(
    "n, pieces_max, named", [(-1, 8, "n must"), (5, 0, "pieces_max"), (5, -2, "pieces_max"), (5, 65, "pieces_max")]
)
def test_check_bounds_rejects_bad_counts(n, pieces_max, named):
    with pytest.raises(ValueError, match=named):
        check_bounds(RobinBC(0.0, 0.0), n, pieces_max, 1)

import pytest

from robinsl import (
    RobinBC,
    approach_extremum,
    check_bounds,
    sample_unit_mass,
)
from robinsl.potential import total_integral


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


@pytest.mark.parametrize("n, pieces_max, named", [(-1, 8, "n must"), (5, 0, "pieces_max"), (5, -2, "pieces_max")])
def test_check_bounds_rejects_bad_counts(n, pieces_max, named):
    with pytest.raises(ValueError, match=named):
        check_bounds(RobinBC(0.0, 0.0), n, pieces_max, 1)

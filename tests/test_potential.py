import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinsl import (
    DeltaAtom,
    Potential,
    RobinBC,
    Segment,
    potential_from_dict,
    potential_to_dict,
)
from robinsl.potential import cell_tables, compile_arrays
from oracles import combine, delta_approx, total_integral


def test_total_integral_constant_one():
    q = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    assert total_integral(q) == 1.0


def test_total_integral_single_atom():
    q = Potential(atoms=(DeltaAtom(0.5, -1.0),))
    assert total_integral(q) == -1.0


def test_total_integral_two_segments():
    q = Potential(segments=(Segment(0.0, 0.25, 2.0), Segment(0.75, 1.0, 2.0)))
    assert total_integral(q) == pytest.approx(1.0, abs=1e-15)


def test_delta_approx_centered():
    q = delta_approx(0.5, 4, 1.0)
    (s,) = q.segments
    assert (s.left, s.right, s.value) == (0.375, 0.625, 4.0)


def test_delta_approx_clipped_right():
    q = delta_approx(1.0, 10, 1.0)
    (s,) = q.segments
    assert s.left == pytest.approx(0.9, abs=1e-15)
    assert s.right == 1.0
    assert s.value == pytest.approx(10.0)


def test_delta_approx_clipped_left_negative_weight():
    q = delta_approx(0.0, 2, -1.0)
    (s,) = q.segments
    assert (s.left, s.right) == (0.0, 0.5)
    assert s.value == -2.0


@given(
    zeta=st.floats(0.0, 1.0),
    n=st.integers(1, 4096),
    w=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_delta_approx_mass_and_width(zeta, n, w):
    q = delta_approx(zeta, n, w)
    (s,) = q.segments
    assert s.right - s.left == pytest.approx(1.0 / n, rel=1e-12)
    assert 0.0 <= s.left < s.right <= 1.0
    assert total_integral(q) == pytest.approx(w, rel=1e-12)


def test_fold_atom_at_one():
    q = Potential(atoms=(DeltaAtom(1.0, 1.0),))
    assert compile_arrays(q, RobinBC(0.0, 0.0)) == ([0.0, 1.0], [0.0], [0.0, 0.0], 0.0, 1.0)


def test_fold_atom_at_zero_negative():
    q = Potential(atoms=(DeltaAtom(0.0, -1.0),))
    assert compile_arrays(q, RobinBC(1.0, 1.0)) == ([0.0, 1.0], [0.0], [0.0, 0.0], 0.0, 1.0)


def test_fold_identity_without_endpoint_atoms():
    q = Potential(segments=(Segment(0.2, 0.4, 1.0),), atoms=(DeltaAtom(0.5, 2.0),))
    assert compile_arrays(q, RobinBC(0.25, 0.5)) == (*cell_tables([(0.2, 0.4, 1.0)], [(0.5, 2.0)]), 0.25, 0.5)


def test_atoms_merge_within_tolerance():
    q = Potential(atoms=(DeltaAtom(0.3, 1.0), DeltaAtom(0.3 + 1e-13, 2.0)))
    assert len(q.atoms) == 1
    assert q.atoms[0].weight == pytest.approx(3.0)


def test_zero_weight_atoms_dropped():
    q = Potential(atoms=(DeltaAtom(0.3, 0.0),))
    assert q.atoms == ()


def test_overlapping_segments_rejected():
    with pytest.raises(ValueError):
        Potential(segments=(Segment(0.0, 0.6, 1.0), Segment(0.5, 1.0, 1.0)))


def test_combine_sums_overlaps():
    a = Potential(segments=(Segment(0.0, 1.0, 1.0),))
    b = Potential(segments=(Segment(0.25, 0.5, 2.0),), atoms=(DeltaAtom(0.7, 1.0),))
    q = combine(a, b)
    assert total_integral(q) == pytest.approx(1.0 + 0.5 + 1.0, abs=1e-14)
    assert q.value_at([0.1, 0.3, 0.9]).tolist() == [1.0, 3.0, 1.0]


def test_robin_bc_invariants():
    with pytest.raises(ValueError):
        RobinBC(-0.5, 1.0)
    with pytest.raises(ValueError):
        RobinBC(1.0, 0.5)
    with pytest.raises(TypeError):
        RobinBC(-0.5, 1.0, validate=False)
    # the pair (-0.5, 1.0) is said by endpoint masses, and folds back
    q = Potential(atoms=(DeltaAtom(0.0, -0.5), DeltaAtom(1.0, 1.0)))
    assert compile_arrays(q, RobinBC(0.0, 0.0))[3:] == (-0.5, 1.0)


def test_delta_approx_rejects_bad_arguments():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        delta_approx(0.5, 0, 1.0)
    for zeta in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match=r"^zeta must lie in \[0, 1\]$"):
            delta_approx(zeta, 4, 1.0)


def test_json_round_trip():
    q = Potential(
        segments=(Segment(0.0, 0.25, 2.0), Segment(0.75, 1.0, 2.0)),
        atoms=(DeltaAtom(0.5, -1.5),),
    )
    d = potential_to_dict(q)
    assert d["segments"][0] == {"l": 0.0, "r": 0.25, "v": 2.0}
    assert d["atoms"][0] == {"z": 0.5, "w": -1.5}
    back = potential_from_dict(d)
    assert back == q


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        Segment(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        DeltaAtom(1.5, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected(bad):
    for pair in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(ValueError, match="^boundary coefficients must be finite$"):
            RobinBC(*pair)
    with pytest.raises(ValueError, match="Segment.value must be finite"):
        Segment(0.0, 0.5, bad)
    with pytest.raises(ValueError, match="DeltaAtom.weight must be finite"):
        DeltaAtom(0.5, bad)
    with pytest.raises(ValueError, match="Segment.value must be finite"):
        potential_from_dict({"segments": [{"l": 0.0, "r": 0.5, "v": bad}]})
    with pytest.raises(ValueError, match="DeltaAtom.weight must be finite"):
        potential_from_dict({"atoms": [{"z": 0.5, "w": bad}]})


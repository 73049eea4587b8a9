"""The list cell tables and the one-pass sampler give the bits of their numpy forms.

``compile_arrays`` builds (edges, vals, atomw) as lists of Python floats, and
``verify._lanes`` draws each check_bounds sample's cell tables from one pass
of its stream.  The numpy construction and the draw-then-normalize route
they replace, with one uniform taken at a time, are kept here as oracles;
both must be matched bit for bit.  So is the fold of endpoint masses into a
rebuilt Potential that ``compile_arrays`` replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robinsl import DeltaAtom, Potential, RobinBC, Segment
from robinsl._rng import derive_seeds, stream, units
from robinsl.potential import MERGE_TOL, cell_tables, compile_arrays
from robinsl.verify import _lanes, regenerate, sample_unit_mass
from oracles import breakpoints, total_integral
from test_block_draw import _row_tables, concentrated_sample

BC_GRID6 = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0), (0.0, 2.0), (1.0, 4.0)]


def _numpy_tables(q):
    pts = breakpoints(q)
    edges = [pts[0]]
    for p in pts[1:]:
        if p - edges[-1] > MERGE_TOL:
            edges.append(p)
    edges[0], edges[-1] = 0.0, 1.0
    edges = np.asarray(edges, dtype=float)
    vals = q.value_at(0.5 * (edges[1:] + edges[:-1]))
    atomw = np.zeros(len(edges))
    for a in q.atoms:
        atomw[int(np.argmin(np.abs(edges - a.position)))] += a.weight
    return edges, vals, atomw


def _assert_same_tables(q):
    got = compile_arrays(q, RobinBC(0.0, 0.0))[:3]
    for new, old in zip(got, _numpy_tables(q)):
        assert type(new) is list and all(type(x) is float for x in new)
        assert np.array(new, dtype=float).tobytes() == old.tobytes(), q


def test_tables_of_replay_samples():
    # the 2016 unit-mass samples of tests/test_solver_replay.py
    for pieces in (8, 16):
        for draw in (sample_unit_mass, concentrated_sample):
            for j in range(len(BC_GRID6)):
                for sign in (1, -1):
                    for i in range(42):
                        _assert_same_tables(draw(pieces, 7919 * j + 31 * i + sign, sign))


def test_tables_of_concentrated_samples():
    for pieces in (1, 2, 32, 64):
        for seed in range(25):
            _assert_same_tables(concentrated_sample(pieces, seed, -1))


d = 2.0**-40  # below MERGE_TOL, while 2*d is above it


@pytest.mark.parametrize(
    "q",
    [
        Potential(),
        Potential(segments=(Segment(0, 1, 3),)),
        # a gap between segments, and a negative one
        Potential(segments=(Segment(0.1, 0.2, 3.0), Segment(0.6, 0.7, -1.0))),
        # segments sharing an edge, and overlapping by less than MERGE_TOL
        Potential(segments=(Segment(0.0, 0.5, 1.0), Segment(0.5, 1.0, 2.0))),
        Potential(segments=(Segment(0.3, 0.5 + 5e-13, 1.0), Segment(0.5, 0.9, 2.0))),
        # breakpoints within MERGE_TOL: a dropped left end beyond the midpoint
        # of the short cell it falls in leaves that cell at 0
        Potential(
            segments=(Segment(0.1, 0.4, 1.0), Segment(0.4 + 9e-13, 0.6, 2.0)),
            atoms=(DeltaAtom(0.4 + 1.5e-12, 3.0),),
        ),
        Potential(segments=(Segment(0.2, 0.5, 1.0), Segment(0.5 + 5e-13, 0.8, 2.0))),
        # a last edge within MERGE_TOL of 1 is moved to 1
        Potential(segments=(Segment(0.3, 1.0 - 5e-13, 4.0),)),
        # a segment narrower than MERGE_TOL
        Potential(segments=(Segment(0.5, 0.5 + 5e-13, 7.0), Segment(0.7, 0.8, 1.0))),
        # a short cell whose midpoint both overlapping segments cover: the
        # later one wins, as in Potential.value_at
        Potential(segments=(Segment(0.3, 0.5 + d, 1.0), Segment(0.5, 0.9, 2.0)), atoms=(DeltaAtom(0.5 + 1.5 * d, 1.0),)),
        # an atom dropped as an edge, equidistant from its two neighbours:
        # it goes to the first, as np.argmin breaks the tie
        Potential(segments=(Segment(0.25, 0.5, 1.0), Segment(0.5 + 2 * d, 0.75, 2.0)), atoms=(DeltaAtom(0.5 + d, 5.0),)),
        # atoms only, two of them sharing an edge
        Potential(atoms=(DeltaAtom(0.3, 1.0), DeltaAtom(0.3 + 5e-13, 2.0), DeltaAtom(0.7, -0.5))),
    ],
)
def test_tables_of_hand_made_potentials(q):
    _assert_same_tables(q)


@st.composite
def close_breakpoint_potentials(draw):
    # cuts snapped to a 1e-12 lattice so merging and ties are common
    ticks = st.integers(1, 10**12 - 1).map(lambda k: k * 1e-12)
    near = st.tuples(st.floats(0.01, 0.99), st.integers(0, 3)).map(lambda t: t[0] + t[1] * 5e-13)
    cuts = sorted(set(draw(st.lists(st.one_of(ticks, near), min_size=2, max_size=8))))
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=len(cuts), max_size=len(cuts)))
    segs = tuple(Segment(l, r, v) for l, r, v in zip(cuts[::2], cuts[1::2], values) if l < r <= 1.0)
    atoms = draw(st.lists(st.tuples(st.one_of(ticks, near), st.floats(-10.0, 10.0)), max_size=3))
    return Potential(segments=segs, atoms=tuple(DeltaAtom(z, w) for z, w in atoms if MERGE_TOL < z < 1.0 - MERGE_TOL))


@settings(max_examples=300, deadline=None)
@given(q=close_breakpoint_potentials())
def test_tables_of_random_potentials(q):
    _assert_same_tables(q)


def _fold_then_compile(q, bc):
    # compile_arrays as it was: endpoint atoms folded into the coefficients
    # and a Potential rebuilt without them, whose tables were then built
    k0, k1 = bc.k0sq, bc.k1sq
    interior = []
    for a in q.atoms:
        if a.position <= MERGE_TOL:
            k0 += a.weight
        elif a.position >= 1.0 - MERGE_TOL:
            k1 += a.weight
        else:
            interior.append(a)
    if len(interior) < len(q.atoms):
        q = Potential(segments=q.segments, atoms=tuple(interior))
    tables = cell_tables(
        [(float(s.left), float(s.right), float(s.value)) for s in q.segments],
        [(float(a.position), float(a.weight)) for a in q.atoms],
    )
    return (*tables, k0, k1)


# at an end, within MERGE_TOL of it, and just beyond that
_NEAR_ENDS = st.one_of(
    st.sampled_from([0.0, 1.0, MERGE_TOL, 1.0 - MERGE_TOL]),
    st.floats(0.0, 2 * MERGE_TOL),
    st.floats(1.0 - 2 * MERGE_TOL, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    q=close_breakpoint_potentials(),
    ends=st.lists(st.tuples(_NEAR_ENDS, st.floats(-10.0, 10.0)), max_size=4),
    bc=st.sampled_from(BC_GRID6),
)
def test_compile_arrays_is_the_fold(q, ends, bc):
    q = Potential(segments=q.segments, atoms=(*q.atoms, *(DeltaAtom(z, w) for z, w in ends)))
    bc = RobinBC(*bc)
    got, want = compile_arrays(q, bc), _fold_then_compile(q, bc)
    for new, old in zip(got[:3], want[:3]):
        assert all(type(x) is float for x in new)
        assert np.array(new, dtype=float).tobytes() == np.array(old, dtype=float).tobytes(), q
    assert np.array(got[3:]).tobytes() == np.array(want[3:]).tobytes(), q


# steps about the merge distance, at it exactly, and ordinary widths
_STEP = st.one_of(st.floats(0.5 * MERGE_TOL, 3 * MERGE_TOL), st.just(MERGE_TOL), st.floats(1e-3, 0.3))


@st.composite
def segment_lists(draw):
    # breakpoints from 0 or a step past it, ending anywhere, at 1 or about
    # MERGE_TOL below it; segments between neighbours, end to end, some
    # dropped, some moved off their left neighbour by a gap or an overlap
    # about MERGE_TOL, never past that neighbour's left end (a neighbour
    # narrower than MERGE_TOL would otherwise be overlapped)
    x = draw(st.one_of(st.just(0.0), _STEP))
    pts = [x]
    for _ in range(draw(st.integers(1, 8))):
        x += draw(_STEP)
        if x >= 1.0:
            break
        pts.append(x)
    end = draw(st.sampled_from(["open", "one", "near"]))
    if end == "one":
        pts.append(1.0)
    elif end == "near":
        near = 1.0 - draw(st.floats(0.5 * MERGE_TOL, 3 * MERGE_TOL))
        if near > pts[-1]:
            pts.append(near)
    segs = []
    for a, b in zip(pts, pts[1:]):
        if draw(st.integers(0, 5)) == 0:
            continue
        if segs and draw(st.integers(0, 4)) == 0:
            a = max(a + draw(st.floats(-MERGE_TOL, 3 * MERGE_TOL)), segs[-1][1] - MERGE_TOL, segs[-1][0])
        if a < b:
            segs.append((a, b, draw(st.floats(-50.0, 50.0))))
    atoms = draw(
        st.one_of(
            st.just([]),
            st.lists(st.tuples(st.one_of(st.sampled_from(pts), st.floats(0.0, 1.0)), st.floats(-10.0, 10.0)), max_size=3),
        )
    )
    return segs, atoms


@settings(max_examples=300, deadline=None)
@given(q=close_breakpoint_potentials(), case=segment_lists())
def test_every_cell_is_wider_than_merge_tol(q, case):
    # shoot_kernel propagates across every cell without a zero-width branch;
    # breakpoints and atoms within about MERGE_TOL of each other must merge
    for edges in (compile_arrays(q, RobinBC(0.0, 0.0))[0], cell_tables(*case)[0]):
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert all(b - a > MERGE_TOL for a, b in zip(edges, edges[1:])), edges


@settings(max_examples=300, deadline=None)
@given(case=segment_lists())
# a segment moved back onto the left end of a neighbour narrower than
# MERGE_TOL; the draw that once put it before that end, 9.145216477654253e-13,
# gave segments that Potential rightly rejects as overlapping
@example(case=([(0.0, 1e-12, 0.0), (1e-12, 1.5e-12, 0.0), (1e-12, 2.9333054831877148e-12, 0.0)], []))
def test_tables_of_segment_lists(case):
    segs, atoms = case
    _assert_same_tables(
        Potential(
            segments=tuple(Segment(*s) for s in segs),
            atoms=tuple(DeltaAtom(z, w) for z, w in atoms if MERGE_TOL < z < 1.0 - MERGE_TOL),
        )
    )


def test_direct_tables_of_a_drawn_sample():
    segs = [(s.left, s.right, s.value) for s in regenerate(20260809, 0, 0, 8).segments]
    edges, vals, atomw = cell_tables(segs)
    assert edges == [0.0, segs[0][0], *(r for _, r, _ in segs), 1.0]
    assert vals == [0.0, *(v for _, _, v in segs), 0.0]
    assert atomw == [0.0] * len(edges)


def _units(seed, skip):
    # the uniforms of seed's stream after its first skip outputs, one at a time
    while True:
        yield from units(stream(seed, skip, 64))[0].tolist()
        skip += 64


def _draw_then_normalize(units, pieces, sign):
    # the sampler as it was: one uniform at a time, raw Segments, then each
    # scaled by sign / mass
    for _ in range(100):
        pts = sorted(next(units) for _ in range(pieces + 1))
        heights = []
        for _ in range(pieces):
            u1, u2 = next(units), next(units)
            heights.append(abs(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)))
        segs = tuple(
            Segment(l, r, sign * h) for l, r, h in zip(pts, pts[1:], heights) if r - l > 1e-14 and h > 0.0
        )
        if segs:
            c = sign / total_integral(Potential(segments=segs))
            return Potential(segments=tuple(Segment(s.left, s.right, s.value * c) for s in segs))
    raise AssertionError("no sample drawn")


# the ids end in "False", the plain draw's, as they did beside the
# concentrated draw that the sampler no longer has
@pytest.mark.parametrize("sign, tag", [(1, 0), (-1, 1)], ids=["1-0-False", "-1-1-False"])
def test_draw_matches_normalize_mass(sign, tag):
    for pieces_max in (8, 16):
        subs = derive_seeds(20260809, tag, 0, 1000).tolist()
        _, _, *block, _ = _lanes(20260809, [(tag, 0, 1000)], pieces_max, 0.0, 0.0)
        lanes = _row_tables(*block)
        for sub, tables in zip(subs, lanes, strict=True):
            pieces = 1 + stream(sub, 0, 1).item() % pieces_max
            want = _draw_then_normalize(_units(sub, 1), pieces, sign)
            assert tables == compile_arrays(want, RobinBC(0.0, 0.0))[:3]

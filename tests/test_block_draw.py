"""check_bounds' block draw gives the bits of the scalar draw, one row at a time.

``verify._block`` draws a block of samples as lane arrays: breakpoints by
``np.sort``, Box-Muller heights with numpy's sqrt and cos and ``math.log``
mapped over the uniforms, the filter as a mask, the mass summed column by
column.  The scalar draw it replaced, one attempt on one list of uniforms, is
kept here as its oracle, with the scalar first-order start; both must be
matched bit for bit, on real streams and on crafted uniform rows that force
each rare path: a dropped cell, a zero height, no mass at all, and
breakpoints too close to keep as a lane's cell tables.
"""

import math

import numpy as np
import pytest

from robinsl import RobinBC
from robinsl._rng import derive_seeds, stream, units
from robinsl.extrema import _eig0
from robinsl.potential import cell_tables
from robinsl.verify import _block, _count, _lanes, regenerate

_TWO_PI = 2.0 * math.pi


def _segments(u, pieces, sign, concentrated):
    """The (left, right, value) segments of one attempt on the uniforms u, or None.

    u holds _count(pieces, concentrated) uniforms: breakpoints, then a
    Box-Muller pair per height.  The segments come sorted, scaled to
    integral sign; None when no mass is left to scale.
    """
    if concentrated:
        width = 1.0 / pieces
        left = u[0] * (1.0 - width)
        inner = sorted(left + x * width for x in u[1:pieces])
        pts = [left] + inner + [left + width]
    else:
        pts = sorted(u[: pieces + 1])
    heights = [
        abs(math.sqrt(-2.0 * math.log(u[j])) * math.cos(_TWO_PI * u[j + 1]))
        for j in range(len(u) - 2 * pieces, len(u), 2)
    ]
    raw = [(l, r, sign * h) for l, r, h in zip(pts, pts[1:], heights) if r - l > 1e-14 and h > 0.0]
    tot = 0.0
    for l, r, v in raw:
        tot += v * (r - l)
    if tot == 0.0:
        return None
    c = sign / tot
    return [(l, r, v * c) for l, r, v in raw]


def _start(edges, vals, k0sq, lam0):
    # the first-order start of one sample, as a scalar loop over its cells
    s = math.sqrt(lam0) if lam0 > 0.0 else 0.0

    def big(x):
        if s > 0.0:
            b = k0sq / s
            sn, cn = math.sin(s * x), math.cos(s * x)
            return 0.5 * (1.0 + b * b) * x + (0.5 * (1.0 - b * b) * cn + b * sn) * sn / s
        return x * (1.0 + k0sq * x * (1.0 + k0sq * x / 3.0))

    num = 0.0
    for i, v in enumerate(vals):
        num += v * (big(edges[i + 1]) - big(edges[i]))
    return lam0 + num / big(edges[-1])


def _bits(xs):
    return np.array(xs, dtype=float).tobytes()


def _row_tables(edges, vals, n):
    """Each padded row of a ``_lanes`` block as the lists a scalar solve takes: (edges, vals, atomw)."""
    return [(e[:m], v[: m - 1], [0.0] * m) for e, v, m in zip(edges.tolist(), vals.tolist(), n.tolist())]


def _assert_block_is_scalar(u, pieces, sign, concentrated):
    """Each row of _block(u, ...) against _segments on that row's uniforms; returns the odd rows."""
    edges, vals, odd = _block(u, pieces, sign, concentrated)
    assert edges.shape == (len(pieces), max(pieces) + 3) and vals.shape == (len(pieces), max(pieces) + 2)
    for r, p in enumerate(pieces):
        want = _segments(u[r, : _count(p, concentrated)].tolist(), p, sign, concentrated)
        if r in odd:
            got = odd[r]
            assert (got is None) == (want is None), r
            if got is None:
                continue
        else:
            e, v = edges[r].tolist(), vals[r].tolist()
            # the lane's cell tables, padded with empty cells at 1
            assert _bits(e[p + 3 :]) == _bits([1.0] * (len(e) - p - 3))
            assert _bits(v[p + 2 :]) == _bits([0.0] * (len(v) - p - 2))
            got = list(zip(e[1 : p + 1], e[2 : p + 2], v[1 : p + 1]))
            edges_want, vals_want, _ = cell_tables(want)
            assert _bits(e[: p + 3]) == _bits(edges_want) and _bits(v[: p + 2]) == _bits(vals_want)
        assert all(type(x) is float for seg in got for x in seg)
        assert len(got) == len(want) and _bits(got) == _bits(want), (r, p)
    return odd


@pytest.mark.parametrize("concentrated", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_block_is_the_scalar_draw(sign, concentrated):
    # every piece count on real streams: one count per block, and (without
    # concentration) mixed counts in one block, as check_bounds draws
    seeds = derive_seeds(20260809, 0 if sign > 0 else 1, 0, 32)
    for p in range(1, 65):
        _assert_block_is_scalar(units(stream(seeds, 0, _count(p, concentrated))), [p] * 32, sign, concentrated)
    if not concentrated:
        for pieces_max in (1, 8, 16, 64):
            raw = stream(seeds, 0, 3 * pieces_max + 2)
            pieces = [1 + z % pieces_max for z in raw[:, 0].tolist()]
            _assert_block_is_scalar(units(raw[:, 1:]), pieces, sign, concentrated)


@pytest.mark.parametrize("concentrated", [False, True])
def test_lanes_are_the_scalar_draw(concentrated):
    # the tables and starts of whole blocks, against the scalar draw and
    # start of each sample on its stream; regenerate draws the same segments
    for k0, k1 in ((0.0, 0.0), (0.25, 0.5), (1.0, 4.0)):
        lam0 = _eig0(k0, k1)
        for pieces_max in (1, 8, 16, 64):
            for tag, sign in ((0, 1), (1, -1)):
                subs = derive_seeds(77, tag, 0, 40).tolist()
                lanes = _lanes(77, tag, 0, 40, pieces_max, concentrated, k0, lam0)
                got = [lane for *block, starts in lanes for lane in zip(_row_tables(*block), starts.tolist())]
                assert len(got) == 40
                for i, (sub, (tables, start)) in enumerate(zip(subs, got)):
                    if concentrated:
                        skip, p = 0, pieces_max
                    else:
                        skip, p = 1, 1 + stream(sub, 0, 1).item() % pieces_max
                    want = _segments(units(stream(sub, skip, _count(p, concentrated)))[0].tolist(), p, sign, concentrated)
                    if k0 == 0.0:
                        q = regenerate(77, tag, i, pieces_max, concentrated)
                        assert _bits([(s.left, s.right, s.value) for s in q.segments]) == _bits(want)
                    for a, b in zip(tables, cell_tables(want)):
                        assert all(type(x) is float for x in a) and _bits(a) == _bits(b)
                    assert _bits([start]) == _bits([_start(*tables[:2], k0, lam0)])


def _row(breaks, heights, tail=()):
    # a non-concentrated row of uniforms: breakpoints, then Box-Muller pairs
    return [*breaks, *(x for pair in heights for x in pair), *tail]


def test_crafted_rows_take_the_rare_paths():
    ok = [(0.3, 0.1), (0.6, 0.2), (0.9, 0.7)]
    rows = [
        # three cells, all kept and spaced: the lane holds its tables
        _row([0.2, 0.5, 0.9, 0.7], ok),
        # a repeated breakpoint: a cell of zero width is dropped
        _row([0.2, 0.5, 0.5, 0.7], ok),
        # breakpoints 5e-15 apart: a cell no wider than 1e-14 is dropped
        _row([0.2, 0.5, 0.5 + 5e-15, 0.7], ok),
        # breakpoints 5e-13 apart: kept, but within MERGE_TOL, so merged
        _row([0.2, 0.5, 0.5 + 5e-13, 0.7], ok),
        # a height uniform of exactly 1.0: log 1 = 0, so h = 0 and dropped
        _row([0.2, 0.5, 0.9, 0.7], [(0.3, 0.1), (1.0, 0.2), (0.9, 0.7)]),
        # every height 0: no mass
        _row([0.2, 0.5, 0.9, 0.7], [(1.0, 0.1), (1.0, 0.2), (1.0, 0.7)]),
        # a breakpoint of exactly 1.0, the padding's value: the last edge
        # meets 1, so merged
        _row([0.2, 0.5, 1.0, 0.7], ok),
    ]
    for sign in (1, -1):
        odd = _assert_block_is_scalar(np.array(rows), [3] * len(rows), sign, False)
        assert sorted(odd) == [1, 2, 3, 4, 5, 6]
        assert odd[5] is None
        # a lane of fewer pieces beside them is padded past its own cells
        mixed = [_row([0.4, 0.6], [(0.5, 0.3)], [0.25] * 6), *rows]
        odd = _assert_block_is_scalar(np.array(mixed), [1] + [3] * len(rows), sign, False)
        assert sorted(odd) == [2, 3, 4, 5, 6, 7]


def test_crafted_concentrated_rows():
    # a left end within MERGE_TOL of 0 (the smallest uniform, 2**-53) and a
    # right end within it of 1 take cell_tables' merge; a spaced window is
    # held in the lane
    heights = [0.3, 0.1, 0.6, 0.2, 0.9, 0.7, 0.5, 0.4]
    rows = [[x, 0.25, 0.5, 0.75, *heights] for x in (2.0**-53, 1.0, 0.5)]
    for sign in (1, -1):
        odd = _assert_block_is_scalar(np.array(rows), [4] * 3, sign, True)
        assert sorted(odd) == [0, 1]


def test_lanes_retry_a_sample_without_mass(monkeypatch):
    # a row with no mass draws on along its own stream, and its tables and
    # start join the block's
    import robinsl.verify as V

    real = V._block
    calls = []

    def empty_first(u, pieces, sign, concentrated):
        edges, vals, odd = real(u, pieces, sign, concentrated)
        calls.append(len(pieces))
        if len(calls) == 1:
            odd[2] = None
        return edges, vals, odd

    monkeypatch.setattr(V, "_block", empty_first)
    lam0 = _eig0(0.25, 0.5)
    *block, starts = next(_lanes(5, 0, 0, 8, 16, False, 0.25, lam0))
    tables, starts = _row_tables(*block), starts.tolist()
    assert calls == [8, 1]
    sub = derive_seeds(5, 0, 2, 3)
    p = 1 + stream(sub, 0, 1).item() % 16
    c = _count(p, False)
    want = _segments(units(stream(sub, 1 + c, c))[0].tolist(), p, 1, False)
    for a, b in zip(tables[2], cell_tables(want)):
        assert _bits(a) == _bits(b)
    assert _bits([starts[2]]) == _bits([_start(*tables[2][:2], 0.25, lam0)])


def test_regenerate_rejects_bad_arguments():
    for args, named in (
        ((1, 2, 0, 8), "tag"),
        ((1, 0, -1, 8), "index"),
        ((1, 0, 2**64, 8), "index"),
        ((1, 0, 0, 65), "pieces_max"),
    ):
        with pytest.raises(ValueError, match=named):
            regenerate(*args)


def test_check_bounds_gaps_are_the_scalar_gaps():
    # the lockstep batch and its bookkeeping against a scalar solve of one
    # sample at a time, each padded row of the same draws sliced to its lists
    from robinsl import check_bounds
    from robinsl.eigensolver import DEFAULT_TOL, _solve_arrays
    from robinsl.extrema import all_extrema

    bc = RobinBC(0.25, 0.5)
    report = check_bounds(bc, 70, 8, 3)
    ext = {r.kind: r.value for r in all_extrema(bc)}
    lam0 = _eig0(bc.k0sq, bc.k1sq)
    seen, gaps = [], {}
    for tag, kinds in ((0, ("m1plus", "M1plus")), (1, ("m1minus", "M1minus"))):
        for *block, starts in _lanes(3, tag, 0, 70, 8, False, bc.k0sq, lam0):
            for t, s in zip(_row_tables(*block), starts.tolist()):
                lam = _solve_arrays(*t, bc.k0sq, bc.k1sq, DEFAULT_TOL, s)[0]
                seen.append(lam)
                for kind in kinds:
                    gaps[kind] = min(gaps.get(kind, math.inf), abs(lam - ext[kind]))
    assert report.n_samples == len(seen) == 140
    assert (report.min_seen, report.max_seen) == (min(seen), max(seen))
    assert report.extremum_gaps == gaps
    assert all(type(g) is float for g in report.extremum_gaps.values())

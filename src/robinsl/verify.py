"""Statistical verification of the extremal bounds.

Draws random unit-mass potentials of either sign class, solves each one, and
checks that every first eigenvalue stays inside [inf, sup] for its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seeds, stream, units
from ._kernels import STATUS_OK, start_state
from ._lockstep import STATUS_RETIRED, lambda1_lanes
from .eigensolver import DEFAULT_TOL, _checked
from .errors import ZeroMass
from .extrema import KINDS, _eig0, all_extrema
from .potential import (
    Potential,
    RobinBC,
    Segment,
    cell_tables,
    potential_to_dict,
    spaced_lanes,
)

#: slack allowed before a sample counts as violating a bound
BOUND_TOL = 1e-7
_TWO_PI = 2.0 * math.pi
#: attempts at a sample with mass before ZeroMass
_TRIES = 100
#: table entries (samples x (pieces_max + 3)) of one check_bounds batch,
#: drawn and solved in lockstep: numpy's per-call cost is spread over ~500
#: samples at --pieces-max 64 and ~3000 at 8, and a call holds about 4 MiB at
#: any n, most of it the solve's per-shot tables (tracemalloc peak 3.96 MiB at
#: 8, 2.95 at 64; 2.0 MiB at half this, at 12-21 % more time per sample;
#: 7.9 MiB at twice it, for 0-4 % less)
_BATCH = 1 << 15


@dataclass
class SampleReport:
    """Outcome of a bound-checking run; violations empty on a passing run."""

    n_samples: int
    violations: list = field(default_factory=list)
    min_seen: float | None = None
    max_seen: float | None = None
    extremum_gaps: dict = field(default_factory=dict)
    seed: int = 0


def _count(pieces: int) -> int:
    """The uniforms one attempt at a sample takes."""
    return 3 * pieces + 1


def _block(u: np.ndarray, pieces: list, sign):
    """Attempts at samples, one per row of the uniforms u, as lane arrays.

    sign is +1 or -1 for every row, or an integer array of one per row.

    Row r takes the first _count(pieces[r]) uniforms of u[r]: pieces[r] + 1
    breakpoints, then a Box-Muller pair per height.  A cell is kept when it
    is wider than 1e-14 and its height is positive; the kept cells, their
    values scaled to integral sign, are the attempt's segments.

    Returns (edges, vals, odd).  A row whose cells are all kept, with
    breakpoints more than MERGE_TOL apart (see :func:`spaced_lanes`), holds
    its cell tables: edges [0, *breakpoints, 1] padded with 1, vals
    [0, *values, 0] padded with 0.  Every other row is a key of odd, whose
    value is its segments as (left, right, value) tuples, or None when no
    mass is left to scale.  Each number has the bits of a scalar loop over
    the row: the breakpoints sort exactly, numpy's sqrt and cos round as
    math's do, math.log is mapped over the height uniforms (numpy's log
    differs in the last bit), and the mass is summed cell by cell in order.
    """
    rows, top = len(pieces), max(pieces)
    p = np.array(pieces)[:, None]
    valid = np.arange(top) < p
    # pts and values are views of the tables, so the draw fills them with
    # no copy: the breakpoints, and the heights, then the values
    edges = np.ones((rows, top + 3))
    edges[:, 0] = 0.0
    pts = edges[:, 1:-1]
    vals = np.zeros((rows, top + 2))
    values = vals[:, 1:-1]
    # a row's breakpoints are its first pieces + 1 uniforms; the columns past
    # them are set to 1, no less than any uniform, and sort last
    pts[:] = u[:, : top + 1]
    pts[np.arange(top + 1) > p] = 1.0
    pts.sort()
    # |N(0, 1)| by Box-Muller, from two uniforms each
    lane, cell = valid.nonzero()
    j = (p[:, 0] + 1)[lane] + 2 * cell
    log = np.fromiter(map(math.log, u[lane, j].tolist()), float, len(j))
    values[valid] = np.abs(np.sqrt(-2.0 * log) * np.cos(_TWO_PI * u[lane, j + 1]))
    del lane, cell, j, log
    widths = pts[:, 1:] - pts[:, :-1]
    kept = (widths > 1e-14) & (values > 0.0)
    sign = np.reshape(sign, (-1, 1))
    values *= sign
    tot = np.zeros(rows)
    for mass in (values * widths * kept).T:
        tot += mass
    empty = tot == 0.0
    tot[empty] = 1.0
    values *= sign / tot[:, None]
    values[~valid] = 0.0
    direct = (kept == valid).all(axis=1) & spaced_lanes(edges, p[:, 0] + 3)
    odd = {}
    for r in (~direct).nonzero()[0].tolist():
        if empty[r]:
            odd[r] = None
        else:
            x, v, k = pts[r].tolist(), values[r].tolist(), kept[r].tolist()
            odd[r] = [(x[i], x[i + 1], v[i]) for i in range(pieces[r]) if k[i]]
    return edges, vals, odd


def _draw(seed: int, skip: int, pieces: int, sign: int) -> list:
    """The segments of one sample: attempts of :func:`_block` on one row,
    each on the next uniforms of seed's stream, the first after its first
    skip outputs.

    Raises ZeroMass when none of _TRIES attempts leaves mass.
    """
    c = _count(pieces)
    for t in range(_TRIES):
        edges, vals, odd = _block(units(stream(seed, skip + t * c, c)), [pieces], sign)
        e, v = edges[0].tolist(), vals[0].tolist()
        # a row holding its cell tables: cell k + 1 is segment k
        segs = odd[0] if odd else list(zip(e[1:-2], e[2:-1], v[1:-1]))
        if segs is not None:
            return segs
    raise ZeroMass("could not draw a potential with positive mass")


def _layout(seeds: np.ndarray, pieces_max: int):
    """(piece counts, first attempts' uniforms) of check_bounds samples on the streams of seeds.

    A sample's piece count is 1 + its stream's first output % pieces_max,
    and its draw starts at the output after it.
    """
    raw = stream(seeds, 0, 3 * pieces_max + 2)
    return [1 + z % pieces_max for z in raw[:, 0].tolist()], units(raw[:, 1:])


def _first_order_starts(edges: np.ndarray, vals: np.ndarray, k0sq: float, lam0: float) -> np.ndarray:
    """First-order estimates of the first eigenvalue about the zero potential.

    Row r of edges and vals holds the atom-free cell tables of sample r,
    padded with empty cells at 1.  lam0 must be the first eigenvalue of the
    zero potential under the same coefficients, and lam0 >= 0 (so k0sq,
    k1sq >= 0).  Its eigenfunction y0 = cos(s*x) + k0sq*sin(s*x)/s,
    s = sqrt(lam0) (y0 = 1 + k0sq*x at lam0 = 0), gives lam0 + (sum of
    vals[i] * the integral of y0^2 over cell i) / the integral of y0^2 over
    [0, 1].  y0 starts from the shots' start_state(k0sq), (a, f) =
    (1, k0sq) scaled by a power of two: the integrals scale exactly by its
    square, so the ratio keeps its bits and no square overflows.

    One numpy pass serves all samples: the sum runs cell by cell, in the
    order of a scalar loop, so each start has the bits of that loop.
    """
    s = math.sqrt(lam0) if lam0 > 0.0 else 0.0
    a, f = start_state(k0sq)
    if s > 0.0:
        # the integrals of y0^2, y0 = a*cos(s*x) + f*sin(s*x) with f = y0'(0)/s
        f = f / s
        sn = np.sin(s * edges)
        cn = np.cos(s * edges)
        big = 0.5 * (a * a + f * f) * edges + (0.5 * (a * a - f * f) * cn + a * f * sn) * sn / s
    else:
        big = edges * (a * a + f * edges * (a + f * edges / 3.0))
    num = np.zeros(len(edges))
    for cell in (vals * (big[:, 1:] - big[:, :-1])).T:
        num += cell
    return lam0 + num / big[:, -1]


def _lanes(seed, runs, pieces_max, k0sq, lam0):
    """One lockstep batch of check_bounds samples: (tags, indices, edges, vals, n, starts).

    runs holds a (tag, start, stop) per class: samples start..stop-1 of
    class tag, in that order.  Sample i of class tag draws on the stream of
    its sub-seed, ``derive_seeds(seed, tag, i, i + 1)``, laid out by
    :func:`_layout`, with sign 1 - 2*tag.  The batch takes its sub-seeds
    from one derive_seeds call per run, its piece counts and uniforms from
    one numpy uint64 pass over their streams, its draws from one
    :func:`_block` with a sign per row, and its starts from one numpy pass
    over its padded tables.  Row r of edges and vals holds the atom-free
    cell tables of sample indices[r] of class tags[r], its n[r] edges padded
    with 1 and its values with 0, as :func:`lambda1_lanes` takes them; every
    number is the one a sample drawn alone gets.
    """
    tags = np.concatenate([np.full(stop - start, tag) for tag, start, stop in runs])
    index = np.concatenate([np.arange(start, stop) for _, start, stop in runs])
    seeds = np.concatenate([derive_seeds(seed, tag, start, stop) for tag, start, stop in runs])
    sign = 1 - 2 * tags
    pieces, u = _layout(seeds, pieces_max)
    edges, vals, odd = _block(u, pieces, sign)
    n = np.array(pieces) + 3
    for r, segs in odd.items():
        if segs is None:
            # the sample as _draw draws it, its massless first attempt again
            segs = _draw(int(seeds[r]), 1, pieces[r], int(sign[r]))
        e, v, _ = cell_tables(segs)
        edges[r], vals[r], n[r] = 1.0, 0.0, len(e)
        edges[r, : len(e)], vals[r, : len(v)] = e, v
    return tags, index, edges, vals, n, _first_order_starts(edges, vals, k0sq, lam0)


def _batches(seed, n, pieces_max, k0sq, lam0):
    """Yield check_bounds' samples as lockstep batches of :func:`_lanes`.

    Samples come in sample order, class 0 then class 1, as many to a batch
    as keep samples x (pieces_max + 3) within _BATCH, and at least one; a
    batch may end one class and start the other.
    """
    size = max(1, _BATCH // (pieces_max + 3))
    for lo in range(0, 2 * n, size):
        # samples lo..hi-1 of the 2n, class 0's n first
        hi = min(lo + size, 2 * n)
        runs = [(tag, max(lo - tag * n, 0), min(hi - tag * n, n)) for tag in (0, 1)]
        yield _lanes(seed, [r for r in runs if r[1] < r[2]], pieces_max, k0sq, lam0)


def _potential(segments) -> Potential:
    return Potential(segments=tuple(Segment(l, r, v) for l, r, v in segments))


def regenerate(seed: int, tag: int, index: int, pieces_max: int) -> Potential:
    """Sample index of class tag (0 for +, 1 for -) as :func:`check_bounds` drew it under seed and pieces_max."""
    if tag not in (0, 1):
        raise ValueError(f"tag must be 0 or 1, got {tag}")
    if not 0 <= index < 2**64:
        raise ValueError(f"index must lie in 0..2**64 - 1, got {index}")
    if not 1 <= pieces_max <= 64:
        raise ValueError(f"pieces_max must lie in 1..64, got {pieces_max}")
    sub = derive_seeds(seed, tag, index, index + 1)
    (pieces,), _ = _layout(sub, pieces_max)
    return _potential(_draw(int(sub[0]), 1, pieces, 1 - 2 * tag))


def sample_unit_mass(pieces: int, seed: int, sign: int) -> Potential:
    """Random piecewise-constant potential of the given sign with |mass| = 1.

    Draws pieces+1 breakpoints uniformly, heights |N(0,1)|, and normalizes
    the total integral to ``sign``.  The stream is splitmix64 seeded with
    ``seed`` (wrapped to 64 bits), so identical arguments reproduce the
    identical potential.  A sample of :func:`check_bounds` draws on a
    sub-seed of its run's seed; :func:`regenerate` draws it again.
    """
    if not 1 <= pieces <= 64:
        raise ValueError("pieces must lie in 1..64")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _potential(_draw(seed, 0, pieces, sign))


#: each sign class's tag and the kinds of its lower and upper extremum
_CLASSES = ((0, "m1plus", "M1plus"), (1, "m1minus", "M1minus"))


def _needed(tags: np.ndarray, ext: dict):
    """The need of :func:`lambda1_lanes` for one check_bounds batch, its classes contiguous in tags.

    A lane is needed while, within its class, its bracket [lo, hi] could
    still give a printed number: it is not inside the class's bounds
    widened by BOUND_TOL, or lo <= the least hi (it could be the least), or
    hi >= the greatest lo (the greatest), or for either extremum its least
    possible distance to it is no more than the least greatest possible
    distance.  Taking these over every lane, itself included, is the same
    test as over the others, since lo <= hi.  The bounds are check_bounds'
    own floats, and rounding is monotone, so the distance of a value inside
    a bracket rounds to no less than the bracket's least and no more than
    its greatest: an unneeded lane is beaten on every printed number by
    another lane's final value, and violates no bound.
    """
    runs = []
    for tag, lo_kind, hi_kind in _CLASSES:
        ours = (tags == tag).nonzero()[0]
        if ours.size:
            lo, hi = ext[lo_kind].value, ext[hi_kind].value
            runs.append((slice(ours[0], ours[-1] + 1), lo - BOUND_TOL, hi + BOUND_TOL, (lo, hi)))

    def need(lo, hi):
        keep = np.empty(len(lo), dtype=bool)
        for at, floor, ceiling, values in runs:
            a, b = lo[at], hi[at]
            k = ~((a >= floor) & (b <= ceiling))
            k |= a <= b.min()
            k |= b >= a.max()
            for e in values:
                da, db = a - e, b - e
                far = np.maximum(np.abs(da), np.abs(db))
                near = np.where(da > 0.0, da, np.where(db < 0.0, -db, 0.0))
                k |= near <= far.min()
            keep[at] = k
        return keep

    return need


def check_bounds(bc: RobinBC, n: int, pieces_max: int, seed: int) -> SampleReport:
    """Solve n random potentials per sign class and compare against the extrema.

    Sample i of class tag (0 for +, 1 for -) draws its piece count and shape
    from the stream of its sub-seed ``derive_seeds(seed, tag, i, i + 1)``,
    so any sample can be drawn again from the report's seed alone, by the
    same code, as :func:`regenerate` does.  Samples go, both classes in
    sample order, into batches of up to _BATCH table entries; each batch is
    drawn, tabled and started from first-order perturbation about the zero
    potential in one pass, as lane arrays (see ``_lanes``), and solved
    together by :func:`lambda1_lanes`.  A sample is solved to full width, with
    the bits of a scalar ``lambda1_kernel`` solve of it, while it could still
    give a printed number (see ``_needed``).  Every other sample retires
    with a bracket inside its class's bounds, beaten on min_seen, max_seen
    and each extremum gap by another sample of its batch and class, so every
    printed number and every violation comes from a full solve, and the
    report is the one solving every sample gives.  A retired sample is
    never settled: a sample the solver could not settle raises only if it
    is not retired, what a scalar solve of it raises (ToleranceNotReached
    or NonFiniteState), the first such sample in sample order.  Only a
    violating sample becomes a Potential, drawn again by :func:`regenerate`
    for the report.  Violations are recorded, not raised.  n = 0 gives an
    empty report; a negative n, or a pieces_max outside 1..64 (the piece
    counts ``sample_unit_mass`` accepts), raises ValueError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 1 <= pieces_max <= 64:
        raise ValueError(f"pieces_max must lie in 1..64, got {pieces_max}")
    ext = {r.kind: r for r in all_extrema(bc)}
    k0, k1 = bc.k0sq, bc.k1sq
    # each solve starts from first-order perturbation about the zero potential
    lam0 = _eig0(k0, k1)
    report = SampleReport(n_samples=0, seed=seed)
    gaps = {k: None for k in KINDS}
    for tags, index, edges, vals, m, starts in _batches(seed, n, pieces_max, k0, lam0):
        lam, width, status = lambda1_lanes(edges, vals, m, k0, k1, DEFAULT_TOL, starts, _needed(tags, ext))
        unsolved = ((status != STATUS_OK) & (status != STATUS_RETIRED)).nonzero()[0]
        if unsolved.size:
            # the first unsolved sample raises what a scalar solve of it raises
            i = unsolved[0]
            _checked(float(lam[i]), float(width[i]), int(status[i]), DEFAULT_TOL)
        for tag, lo_kind, hi_kind in _CLASSES:
            ours = tags == tag
            if not ours.any():
                continue
            lo = ext[lo_kind].value
            hi = ext[hi_kind].value
            got = lam[ours]
            lams = got.tolist()
            report.n_samples += len(lams)
            # min, max and the distances are exact, so a batch's bookkeeping
            # gives the numbers of one sample at a time
            least, most = min(lams), max(lams)
            if report.min_seen is None or least < report.min_seen:
                report.min_seen = least
            if report.max_seen is None or most > report.max_seen:
                report.max_seen = most
            for kind in (lo_kind, hi_kind):
                gap = float(np.abs(got - ext[kind].value).min())
                if gaps[kind] is None or gap < gaps[kind]:
                    gaps[kind] = gap
            bad = (got < lo - BOUND_TOL) | (got > hi + BOUND_TOL)
            for i, j in zip(bad.nonzero()[0].tolist(), index[ours][bad].tolist()):
                bound, gap = (lo_kind, lo - lams[i]) if lams[i] < lo - BOUND_TOL else (hi_kind, lams[i] - hi)
                q = regenerate(seed, tag, j, pieces_max)
                report.violations.append(
                    {"potential": potential_to_dict(q), "lambda1": lams[i], "bound": bound, "gap": gap}
                )
        # drop this batch before _batches draws the next, so that a call holds
        # one at a time; every batch has a sample, so got, lams and bad are bound
        del tags, index, edges, vals, m, starts, lam, width, status, got, lams, bad
    report.extremum_gaps = gaps
    return report


"""Statistical verification of the extremal bounds.

Draws random unit-mass potentials of either sign class, solves each one, and
checks that every first eigenvalue stays inside [inf, sup] for its class.
Delta-type extrema are additionally approached through box approximations of
the extremal point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_seeds, stream, stream_units
from .eigensolver import DEFAULT_TOL, _solve_arrays, lambda1_value
from .errors import ZeroMass
from .extrema import KINDS, _eig0, _makers, all_extrema
from .potential import (
    Potential,
    RobinBC,
    Segment,
    cell_tables,
    combine,
    delta_approx,
    potential_to_dict,
)

#: slack allowed before a sample counts as violating a bound
BOUND_TOL = 1e-7
_TWO_PI = 2.0 * math.pi
#: attempts at a sample with mass before ZeroMass
_TRIES = 100
#: samples per numpy pass of check_bounds' streams and starts; a larger
#: block holds more uniforms as Python floats at once
_BLOCK = 32


@dataclass
class SampleReport:
    """Outcome of a bound-checking run; violations empty on a passing run."""

    n_samples: int
    violations: list = field(default_factory=list)
    min_seen: float | None = None
    max_seen: float | None = None
    extremum_gaps: dict = field(default_factory=dict)
    seed: int = 0


def _count(pieces: int, concentrated: bool) -> int:
    """The uniforms one attempt at a sample takes."""
    return 3 * pieces + (0 if concentrated else 1)


def _segments(u: list, pieces: int, sign: int, concentrated: bool):
    """The (left, right, value) segments of one attempt on the uniforms u, or None.

    u holds _count(pieces, concentrated) uniforms: breakpoints, then a
    Box-Muller pair per height.  The segments come sorted, scaled to
    integral sign; None when no mass is left to scale.
    """
    if concentrated:
        # support pinned to a window of width exactly 1/pieces at a random
        # center, so larger piece counts concentrate the unit mass harder
        width = 1.0 / pieces
        left = u[0] * (1.0 - width)
        inner = sorted(left + x * width for x in u[1:pieces])
        pts = [left] + inner + [left + width]
    else:
        pts = sorted(u[: pieces + 1])
    # |N(0, 1)| by Box-Muller, from two uniforms each
    heights = [
        abs(math.sqrt(-2.0 * math.log(u[j])) * math.cos(_TWO_PI * u[j + 1]))
        for j in range(len(u) - 2 * pieces, len(u), 2)
    ]
    raw = [
        (l, r, sign * h)
        for l, r, h in zip(pts, pts[1:], heights)
        if r - l > 1e-14 and h > 0.0
    ]
    tot = 0.0
    for l, r, v in raw:
        tot += v * (r - l)
    if tot == 0.0:
        return None
    c = sign / tot
    return [(l, r, v * c) for l, r, v in raw]


def _draw(seed: int, skip: int, pieces: int, sign: int, concentrated: bool, tries: int = _TRIES) -> list:
    """The segments of one sample: attempts of :func:`_segments`, each on the
    next uniforms of seed's stream, the first after its first skip outputs.

    Raises ZeroMass when none of the tries leaves mass.
    """
    c = _count(pieces, concentrated)
    for t in range(tries):
        (u,) = stream_units(seed, skip + t * c, c)
        segs = _segments(u, pieces, sign, concentrated)
        if segs is not None:
            return segs
    raise ZeroMass("could not draw a potential with positive mass")


def _first_order_starts(tables: list, k0sq: float, lam0: float) -> list:
    """First-order estimates of the first eigenvalue about the zero potential.

    tables holds the atom-free (edges, vals, atomw) cell tables of each
    sample.  lam0 must be the first eigenvalue of the zero potential under
    the same coefficients, and lam0 >= 0 (so k0sq, k1sq >= 0).  Its
    eigenfunction y0 = cos(s*x) + k0sq*sin(s*x)/s, s = sqrt(lam0)
    (y0 = 1 + k0sq*x at lam0 = 0), gives lam0 + (sum of vals[i] * the
    integral of y0^2 over cell i) / the integral of y0^2 over [0, 1].

    One numpy pass serves all samples: the tables are padded to one width
    with empty cells at 1, and the sum runs cell by cell, in the order of a
    scalar loop, so each start has the bits of that loop.
    """
    width = max(len(edges) for edges, _, _ in tables)
    x = np.array([edges + [1.0] * (width - len(edges)) for edges, _, _ in tables])
    v = np.array([vals + [0.0] * (width - 1 - len(vals)) for _, vals, _ in tables])
    s = math.sqrt(lam0) if lam0 > 0.0 else 0.0
    if s > 0.0:
        b = k0sq / s
        sn = np.sin(s * x)
        cn = np.cos(s * x)
        big = 0.5 * (1.0 + b * b) * x + (0.5 * (1.0 - b * b) * cn + b * sn) * sn / s
    else:
        big = x * (1.0 + k0sq * x * (1.0 + k0sq * x / 3.0))
    num = np.zeros(len(tables))
    for cell in (v * (big[:, 1:] - big[:, :-1])).T:
        num += cell
    return (lam0 + num / big[:, -1]).tolist()


def _samples(seed, tag, start, stop, pieces_max, sign, concentrated, k0sq, lam0):
    """Yield (segments, cell tables, first-order start) of samples start..stop-1 of class tag.

    Sample i draws on the stream of its sub-seed, ``derive_seeds(seed, tag,
    i, i + 1)``, so ``next(_samples(seed, tag, i, i + 1, ...))`` draws it
    again as check_bounds does.  Each block of _BLOCK samples takes its
    sub-seeds, piece counts and uniforms from numpy uint64 passes over its
    streams, and its starts from one numpy pass over its tables; every
    number is the one a sample drawn alone gets.
    """
    for lo in range(start, stop, _BLOCK):
        seeds = derive_seeds(seed, tag, lo, min(stop, lo + _BLOCK))
        if concentrated:
            # concentrated mode pins the piece count so the support window
            # width 1/pieces_max shrinks as pieces_max grows
            skip, pieces = 0, [pieces_max] * len(seeds)
        else:
            # the piece count is each stream's first output
            skip, pieces = 1, [1 + z % pieces_max for z in stream(seeds, 0, 1).ravel().tolist()]
        counts = [_count(p, concentrated) for p in pieces]
        drawn = []
        for sub, p, c, u in zip(seeds.tolist(), pieces, counts, stream_units(seeds, skip, max(counts))):
            segs = _segments(u[:c], p, sign, concentrated)
            if segs is None:
                # the next attempts go on along the same stream
                segs = _draw(sub, skip + c, p, sign, concentrated, _TRIES - 1)
            drawn.append(segs)
        tables = [cell_tables(segs) for segs in drawn]
        yield from zip(drawn, tables, _first_order_starts(tables, k0sq, lam0))


def _potential(segments) -> Potential:
    return Potential(segments=tuple(Segment(l, r, v) for l, r, v in segments))


def sample_unit_mass(pieces: int, seed: int, sign: int, concentrated: bool = False) -> Potential:
    """Random piecewise-constant potential of the given sign with |mass| = 1.

    Draws pieces+1 breakpoints uniformly (inside a shrinking window when
    ``concentrated``), heights |N(0,1)|, and normalizes the total integral to
    ``sign``.  The stream is splitmix64 seeded with ``seed`` (wrapped to 64
    bits), so identical arguments reproduce the identical potential.
    """
    if not 1 <= pieces <= 64:
        raise ValueError("pieces must lie in 1..64")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _potential(_draw(seed, 0, pieces, sign, concentrated))


def check_bounds(
    bc: RobinBC,
    n: int,
    pieces_max: int,
    seed: int,
    concentrated: bool = False,
) -> SampleReport:
    """Solve n random potentials per sign class and compare against the extrema.

    Sample i of class tag (0 for +, 1 for -) draws its piece count and shape
    from the stream of its sub-seed ``derive_seeds(seed, tag, i, i + 1)``,
    so any violating sample can be regenerated from the report's seed alone,
    by the same code.  A sample's cell tables are built from its drawn
    segments, and its solve starts from first-order perturbation about the
    zero potential, a block of samples at a time (see ``_samples``); only a
    violating sample becomes a Potential, for the report.  Violations are
    recorded, not raised.  n = 0 gives an empty report; a negative n, or a
    pieces_max outside 1..64 (the piece counts ``sample_unit_mass``
    accepts), raises ValueError.
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
    for sign, tag, lo_kind, hi_kind in (
        (1, 0, "m1plus", "M1plus"),
        (-1, 1, "m1minus", "M1minus"),
    ):
        lo = ext[lo_kind].value
        hi = ext[hi_kind].value
        for segs, (edges, vals, atomw), start in _samples(seed, tag, 0, n, pieces_max, sign, concentrated, k0, lam0):
            lam = _solve_arrays(edges, vals, atomw, k0, k1, DEFAULT_TOL, start)[0]
            report.n_samples += 1
            if report.min_seen is None or lam < report.min_seen:
                report.min_seen = lam
            if report.max_seen is None or lam > report.max_seen:
                report.max_seen = lam
            for kind in (lo_kind, hi_kind):
                gap = abs(lam - ext[kind].value)
                if gaps[kind] is None or gap < gaps[kind]:
                    gaps[kind] = gap
            if lam < lo - BOUND_TOL:
                bound, gap = lo_kind, lo - lam
            elif lam > hi + BOUND_TOL:
                bound, gap = hi_kind, lam - hi
            else:
                continue
            report.violations.append(
                {"potential": potential_to_dict(_potential(segs)), "lambda1": lam, "bound": bound, "gap": gap}
            )
    report.extremum_gaps = gaps
    return report


def approach_extremum(bc: RobinBC, kind: str, depth: int):
    """Eigenvalues along box approximations q_n of the extremal potential.

    Every point mass of the extremal potential is replaced by a box of width
    1/n for n = 2^k, k = 2..depth; summable parts are kept as they are.  For
    the plateau extremum the approximant already equals the extremal
    potential, so the gap is zero at every n.

    Returns a list of (n, lambda1(q_n), |lambda1(q_n) - extremum|).
    """
    if not 2 <= depth <= 14:
        raise ValueError("depth must lie in 2..14")
    maker = _makers()
    if kind not in maker:
        raise ValueError(f"kind must be one of {sorted(maker)}")
    rep = maker[kind](bc)
    out = []
    for k in range(2, depth + 1):
        nn = 2**k
        if rep.q_star.atoms:
            parts = [delta_approx(a.position, nn, a.weight) for a in rep.q_star.atoms]
            if rep.q_star.segments:
                parts.append(Potential(segments=rep.q_star.segments))
            qn = combine(*parts)
        else:
            qn = rep.q_star
        lam = lambda1_value(qn, bc)
        out.append((nn, lam, abs(lam - rep.value)))
    return out

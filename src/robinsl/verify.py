"""Statistical verification of the extremal bounds.

Draws random unit-mass potentials of either sign class, solves each one, and
checks that every first eigenvalue stays inside [inf, sup] for its class.
Delta-type extrema are additionally approached through box approximations of
the extremal point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._kernels import first_order_start
from ._rng import SplitMix64, derive_seed
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


@dataclass
class SampleReport:
    """Outcome of a bound-checking run; violations empty on a passing run."""

    n_samples: int
    violations: list = field(default_factory=list)
    min_seen: float | None = None
    max_seen: float | None = None
    extremum_gaps: dict = field(default_factory=dict)
    seed: int = 0


def _draw(rng: SplitMix64, pieces: int, sign: int, concentrated: bool) -> list:
    """The (left, right, value) segments of one sample, sorted, of integral sign.

    A sample takes 3*pieces uniforms from rng, plus one unless concentrated:
    breakpoints, then a Box-Muller pair per height.
    """
    for _ in range(100):
        u = rng.units(3 * pieces + (0 if concentrated else 1))
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
        if tot != 0.0:
            c = sign / tot
            return [(l, r, v * c) for l, r, v in raw]
    raise ZeroMass("could not draw a potential with positive mass")


def _potential(segments) -> Potential:
    return Potential(segments=tuple(Segment(l, r, v) for l, r, v in segments))


def sample_unit_mass(pieces: int, seed: int, sign: int, concentrated: bool = False) -> Potential:
    """Random piecewise-constant potential of the given sign with |mass| = 1.

    Draws pieces+1 breakpoints uniformly (inside a shrinking window when
    ``concentrated``), heights |N(0,1)|, and normalizes the total integral to
    ``sign``.  The stream is splitmix64 seeded with ``seed``, so identical
    arguments reproduce the identical potential.
    """
    if not 1 <= pieces <= 64:
        raise ValueError("pieces must lie in 1..64")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _potential(_draw(SplitMix64(seed), pieces, sign, concentrated))


def check_bounds(
    bc: RobinBC,
    n: int,
    pieces_max: int,
    seed: int,
    concentrated: bool = False,
) -> SampleReport:
    """Solve n random potentials per sign class and compare against the extrema.

    Sample i of class tag (0 for +, 1 for -) draws its piece count and shape
    from the sub-seed ``derive_seed(seed, tag, i)``, so any violating sample
    can be regenerated from the report's seed alone.  A sample's cell tables
    are built from its drawn segments, and its solve starts from first-order
    perturbation about the zero potential; only a violating sample becomes a
    Potential, for the report.  Violations are recorded, not raised.  n = 0
    gives an empty report; a negative n or a pieces_max below 1 raises
    ValueError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if pieces_max < 1:
        raise ValueError(f"pieces_max must be >= 1, got {pieces_max}")
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
        for i in range(n):
            rng = SplitMix64(derive_seed(seed, tag, i))
            # concentrated mode pins the piece count so the support window
            # width 1/pieces_max shrinks as pieces_max grows
            pieces = pieces_max if concentrated else 1 + rng.next_u64() % pieces_max
            segs = _draw(rng, pieces, sign, concentrated)
            edges, vals, atomw = cell_tables(segs)
            start = first_order_start(edges, vals, atomw, k0, lam0)
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
                report.violations.append(
                    {"potential": potential_to_dict(_potential(segs)), "lambda1": lam, "bound": lo_kind, "gap": lo - lam}
                )
            elif lam > hi + BOUND_TOL:
                report.violations.append(
                    {"potential": potential_to_dict(_potential(segs)), "lambda1": lam, "bound": hi_kind, "gap": lam - hi}
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

"""Boundary coefficients and piecewise-constant potentials with Dirac atoms.

A potential on [0, 1] is a sorted list of constant-value segments with
disjoint interiors (gaps count as value 0) plus a list of weighted point
masses.  All types are frozen dataclasses and safe to share between threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

#: positions closer than this are treated as the same point
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class RobinBC:
    """Boundary coefficient pair: y'(0) = k0sq*y(0) and y'(1) = -k1sq*y(1).

    The coefficients are squares, k0sq >= 0, ordered by reflection so that
    k1sq >= k0sq.  Any other real pair is the admissible pair (0, 0) plus the
    endpoint masses DeltaAtom(0, k0sq) and DeltaAtom(1, k1sq), which
    :func:`compile_arrays` adds to the coefficients the solvers shoot with.
    """

    k0sq: float
    k1sq: float

    def __post_init__(self):
        object.__setattr__(self, "k0sq", float(self.k0sq))
        object.__setattr__(self, "k1sq", float(self.k1sq))
        if not (math.isfinite(self.k0sq) and math.isfinite(self.k1sq)):
            raise ValueError("boundary coefficients must be finite")
        if self.k0sq < 0.0:
            raise ValueError(f"k0sq must be >= 0, got {self.k0sq}")
        if self.k1sq < self.k0sq:
            raise ValueError(
                f"k1sq must be >= k0sq, got k0sq={self.k0sq}, k1sq={self.k1sq}"
            )


@dataclass(frozen=True)
class Segment:
    """Constant potential of the given value on [left, right]."""

    left: float
    right: float
    value: float

    def __post_init__(self):
        if not (0.0 <= self.left < self.right <= 1.0):
            raise ValueError(
                f"segment needs 0 <= left < right <= 1, got [{self.left}, {self.right}]"
            )
        if not math.isfinite(self.value):
            raise ValueError(f"Segment.value must be finite, got {self.value}")


@dataclass(frozen=True)
class DeltaAtom:
    """Point mass of the given weight at position z in [0, 1]."""

    position: float
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.position <= 1.0:
            raise ValueError(f"atom position must lie in [0, 1], got {self.position}")
        if not math.isfinite(self.weight):
            raise ValueError(f"DeltaAtom.weight must be finite, got {self.weight}")


@dataclass(frozen=True)
class Potential:
    """Piecewise-constant part plus Dirac atoms.

    Segments are stored sorted by left endpoint and must have disjoint
    interiors.  Atoms closer than ``MERGE_TOL`` are merged by weight addition
    and zero-weight atoms are dropped.
    """

    segments: tuple = ()
    atoms: tuple = ()

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.left))
        for a, b in zip(segs, segs[1:]):
            if b.left < a.right - MERGE_TOL:
                raise ValueError(
                    f"segments overlap: [{a.left}, {a.right}] and [{b.left}, {b.right}]"
                )
        merged = []
        for atom in sorted(self.atoms, key=lambda a: a.position):
            if merged and abs(atom.position - merged[-1].position) <= MERGE_TOL:
                merged[-1] = DeltaAtom(merged[-1].position, merged[-1].weight + atom.weight)
            else:
                merged.append(atom)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "atoms", tuple(a for a in merged if a.weight != 0.0))

    def value_at(self, x):
        """Piecewise value at points x (segment edges resolve to the segment value)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for s in self.segments:
            out = np.where((x >= s.left) & (x <= s.right), s.value, out)
        return out


def compile_arrays(q: Potential, bc: RobinBC):
    """The shooting kernels' arguments (edges, vals, atomw, k0sq, k1sq) for q under bc.

    An atom within MERGE_TOL of 0 or 1 is an endpoint mass: its weight is
    added to k0sq or k1sq, the effective coefficients the kernels shoot
    with, which may be any real numbers, negative or out of order.  The cell
    tables come from :func:`cell_tables` on the segments and the other atoms.
    """
    k0, k1 = bc.k0sq, bc.k1sq
    interior = []
    for a in q.atoms:
        if a.position <= MERGE_TOL:
            k0 += a.weight
        elif a.position >= 1.0 - MERGE_TOL:
            k1 += a.weight
        else:
            interior.append((float(a.position), float(a.weight)))
    segments = [(float(s.left), float(s.right), float(s.value)) for s in q.segments]
    return (*cell_tables(segments, interior), k0, k1)


def cell_tables(segments, atoms=()):
    """Cell tables (edges, vals, atomw) for the shooting kernels from float tuples.

    segments holds (left, right, value) sorted by left, atoms (position,
    weight) more than MERGE_TOL from 0 and 1, both as they would sit in a
    Potential.  edges covers [0, 1] with every segment edge and atom position
    as a breakpoint (points within MERGE_TOL of the previous edge are
    dropped); vals[i] is the value at the midpoint of cell i, taken from the
    last segment covering it (as in :meth:`Potential.value_at`), and atomw[i]
    the weight of the atoms whose nearest edge (the first, on a tie) is
    edges[i].  :func:`compile_arrays` calls this on a Potential's pieces, and
    the sampler of ``verify`` on the segments it draws.

    The tables are lists of Python floats: the kernels index them once per
    cell per shot, and a float read from a list avoids numpy's scalar
    overhead on every later operation.
    """
    pts = {0.0, 1.0}
    for l, r, _ in segments:
        pts.add(l)
        pts.add(r)
    for z, _ in atoms:
        pts.add(z)
    pts = sorted(pts)
    edges = [0.0]
    for p in pts[1:]:
        if p - edges[-1] > MERGE_TOL:
            edges.append(p)
    edges[-1] = 1.0
    n = len(edges)
    mids = [0.5 * (edges[i] + edges[i + 1]) for i in range(n - 1)]
    vals = [0.0] * (n - 1)
    for l, r, v in segments:
        lo = bisect_left(mids, l)
        hi = bisect_right(mids, r)
        vals[lo:hi] = [v] * (hi - lo)
    atomw = [0.0] * n
    for z, w in atoms:
        i = min(range(n), key=lambda j: abs(edges[j] - z))
        atomw[i] += w
    return edges, vals, atomw


def spaced_lanes(edges: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Whether :func:`cell_tables` would keep each row of edges as it is.

    Row r holds the edges [0, *points, 1] of end-to-end segments in its
    first n[r] entries, padded with 1.  The merge keeps them when every edge
    is more than MERGE_TOL from the next.
    """
    gaps = edges[:, 1:] - edges[:, :-1]
    return ((gaps > MERGE_TOL) | (np.arange(gaps.shape[1]) >= n[:, None] - 1)).all(axis=1)


def potential_to_dict(q: Potential) -> dict:
    """JSON-schema dict: {"segments": [{"l", "r", "v"}], "atoms": [{"z", "w"}]}."""
    return {
        "segments": [{"l": s.left, "r": s.right, "v": s.value} for s in q.segments],
        "atoms": [{"z": a.position, "w": a.weight} for a in q.atoms],
    }


def _schema_rows(d, key, fields):
    """Yield the numeric fields of each entry of d[key]; ValueError names a bad one."""
    items = d.get(key, [])
    if not isinstance(items, list):
        raise ValueError(f"{key} must be a list, got {type(items).__name__}")
    for i, entry in enumerate(items):
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {type(entry).__name__}")
        row = []
        for f in fields:
            if f not in entry:
                raise ValueError(f"{key}[{i}].{f} is missing")
            x = entry[f]
            # JSON numbers load as int or float; float() would also take a
            # bool (an int) or a numeric string
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ValueError(f"{key}[{i}].{f} must be a number, got {x!r}")
            try:
                row.append(float(x))
            except OverflowError:
                raise ValueError(f"{key}[{i}].{f} must be finite, got an integer past float range") from None
        yield row


def potential_from_dict(d: dict) -> Potential:
    """Inverse of :func:`potential_to_dict`.

    Raises ValueError naming the offending field when d breaks the schema.
    """
    if not isinstance(d, dict):
        raise ValueError(f"potential must be an object, got {type(d).__name__}")
    segs = tuple(Segment(*row) for row in _schema_rows(d, "segments", "lrv"))
    atoms = tuple(DeltaAtom(*row) for row in _schema_rows(d, "atoms", "zw"))
    return Potential(segments=segs, atoms=atoms)

"""Reference computations that only the tests read.

Each one is independent of the solver's own arithmetic, so a test can check
a solver result, a sampler's mass or a cell table against it.  The box
approximations of point masses (``delta_approx``, summed with ``combine``)
give the sequences whose eigenvalues converge to a point mass's.
"""

import numpy as np

from robinsl import Potential, Segment
from robinsl.potential import MERGE_TOL


def breakpoints(q):
    """Sorted positions where q changes: segment edges and atoms, with 0 and 1."""
    pts = {0.0, 1.0}
    for s in q.segments:
        pts.add(s.left)
        pts.add(s.right)
    for a in q.atoms:
        pts.add(a.position)
    return sorted(pts)


def total_integral(q) -> float:
    """Integral of q over [0, 1]: segment value*width plus atom weights."""
    tot = 0.0
    for s in q.segments:
        tot += s.value * (s.right - s.left)
    for a in q.atoms:
        tot += a.weight
    return tot


def quadratic_form(q, bc, lam: float, xs, ys) -> float:
    """Energy form at the sampled function: int (y')^2 + (q - lam) y^2 plus boundary terms.

    xs must be strictly increasing and contain every segment edge and atom
    position.  y' is estimated by central differences, falling back to
    one-sided differences at breakpoints (where y' may jump) and at the
    interval ends; the integral is a composite trapezoid over the grid cells.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 11:
        raise ValueError("quadratic_form needs at least 11 grid points")
    if not (xs[1:] > xs[:-1]).all():
        raise ValueError("grid must be strictly increasing")
    kinks = breakpoints(q)
    idx = np.searchsorted(xs, kinks)
    idx = np.clip(idx, 0, len(xs) - 1)
    near = np.minimum(np.abs(xs[idx] - kinks), np.abs(xs[np.maximum(idx - 1, 0)] - kinks))
    if np.any(near > 1e-9):
        raise ValueError("grid must contain every breakpoint and atom position")
    use_central = np.ones(len(xs), dtype=bool)
    for z in kinks:
        use_central[int(np.argmin(np.abs(xs - z)))] = False
    use_central[0] = use_central[-1] = False

    dx = np.diff(xs)
    cell_slope = np.diff(ys) / dx
    central = np.zeros(len(xs))
    central[1:-1] = (ys[2:] - ys[:-2]) / (xs[2:] - xs[:-2])
    # slope as seen from inside each cell at its two ends: central difference
    # where y' is smooth, one-sided into the cell at kinks and interval ends
    left_sl = np.where(use_central[:-1], central[:-1], cell_slope)
    right_sl = np.where(use_central[1:], central[1:], cell_slope)

    grad_term = float(np.sum(0.5 * dx * (left_sl**2 + right_sl**2)))
    mids = 0.5 * (xs[1:] + xs[:-1])
    vmid = q.value_at(mids)
    pot_term = float(np.sum(0.5 * dx * (vmid - lam) * (ys[1:] ** 2 + ys[:-1] ** 2)))
    atom_term = 0.0
    for a in q.atoms:
        j = int(np.argmin(np.abs(xs - a.position)))
        atom_term += a.weight * ys[j] ** 2
    return grad_term + pot_term + atom_term + bc.k0sq * ys[0] ** 2 + bc.k1sq * ys[-1] ** 2


def delta_approx(zeta: float, n: int, weight: float) -> Potential:
    """Box approximation of weight*delta_zeta: width 1/n, height n*weight.

    The box is centered at zeta and shifted inward at the endpoints so the
    width (and hence the total integral) is preserved exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    w = 1.0 / n
    left = zeta - 0.5 * w
    if left < 0.0:
        left = 0.0
    elif left + w > 1.0:
        left = 1.0 - w
    return Potential(segments=(Segment(left, left + w, n * weight),))


def combine(*potentials: Potential) -> Potential:
    """Pointwise sum of potentials, splitting segments so interiors stay disjoint."""
    edges = {0.0, 1.0}
    for q in potentials:
        for s in q.segments:
            edges.add(s.left)
            edges.add(s.right)
    edges = sorted(edges)
    segs = []
    for l, r in zip(edges, edges[1:]):
        if r - l <= MERGE_TOL:
            continue
        mid = 0.5 * (l + r)
        v = 0.0
        for q in potentials:
            for s in q.segments:
                if s.left <= mid <= s.right:
                    v += s.value
        if v != 0.0:
            segs.append(Segment(l, r, v))
    atoms = [a for q in potentials for a in q.atoms]
    return Potential(segments=tuple(segs), atoms=tuple(atoms))

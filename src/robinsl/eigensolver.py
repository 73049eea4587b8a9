"""First eigenvalue of -y'' + (q - lam) y = 0 under Robin conditions.

The solver propagates the exact 2x2 fundamental solution across each
constant-potential cell, applies the derivative jump y'(z+) - y'(z-) =
w*y(z) at interior atoms, and brackets the first eigenvalue by the sign
structure of the terminal defect y'(1) + k1sq*y(1).  A trial value lies below
the first eigenvalue exactly when the shot solution is zero-free with
positive defect, which makes the bracket predicate monotone.

The same shot gives the Prüfer angle at x=1, continuous and increasing in
lam, and its slope in lam, the integral of y^2 over y(1)^2 + y'(1)^2.  A
Newton step on the angle picks each next trial value and the predicate moves
one end of the bracket (``_kernels.lambda1_kernel``), which is narrowed to
width tol + 1e-14*|lam|.  On check_bounds' samples of 1 to 16 segments a
solve takes 4.2-4.6 shots from first-order perturbation about the zero
potential, and 4.4-7.3 from the Rayleigh quotient, where the Illinois step
it replaced took 8-11.6.  check_bounds solves its samples in lockstep
(``_lockstep.lambda1_lanes``), with the bits of one ``lambda1_kernel`` call
each where it solves them to full width; a lane that is neither OK nor
retired raises what :func:`_checked` raises for it here.
An independent finite-difference discretization provides a cross-check
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    STATUS_NONFINITE,
    STATUS_OK,
    lambda1_kernel,
    propagate_step,
    shoot_kernel,
    start_state,
)
from .errors import NoConvergence, NonFiniteState, ToleranceNotReached
from .potential import Potential, RobinBC, compile_arrays

DEFAULT_TOL = 1e-10
#: the uniform points every eigenfunction is sampled on, besides its breakpoints
DEFAULT_GRID = np.linspace(0.0, 1.0, 2001)
DEFAULT_GRID.flags.writeable = False
_NONFINITE = "shooting state overflowed or vanished"


@dataclass(frozen=True)
class EigenResult:
    """Converged first eigenvalue with a sampled positive eigenfunction.

    ``residual`` is y'(1) + k1sq*y(1) of the max-norm-rescaled sweep at lambda1;
    only its sign carries meaning.  ``bracket_width`` bounds the error of lambda1.
    """

    lambda1: float
    xs: np.ndarray
    ys: np.ndarray
    residual: float
    bracket_width: float


def _solve_arrays(edges, vals, atomw, k0sq, k1sq, tol, start=math.nan):
    return _checked(*lambda1_kernel(edges, vals, atomw, k0sq, k1sq, tol, start), tol)


def _checked(lam, width, status, tol):
    """(lam, width) of a solve whose status is OK; else the error that status names."""
    if status == STATUS_NONFINITE:
        raise NonFiniteState(_NONFINITE)
    if status != STATUS_OK:
        raise ToleranceNotReached(
            f"root-find stalled at bracket width {width:.3e} > tol + 1e-14*|lam| = "
            f"{tol + 1e-14 * abs(lam):.3e}"
        )
    if not math.isfinite(lam):
        raise NonFiniteState(f"bracket midpoint overflowed: lam = {lam}")
    return lam, width


def _check_tol(tol):
    # `not 0 < tol < inf` also rejects nan, which every comparison fails
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def lambda1_value(q: Potential, bc: RobinBC, tol: float = DEFAULT_TOL) -> float:
    """First eigenvalue only (no eigenfunction sampling), from the Rayleigh quotient."""
    _check_tol(tol)
    return _solve_arrays(*compile_arrays(q, bc), tol)[0]


def lambda1(q: Potential, bc: RobinBC, tol: float = DEFAULT_TOL) -> EigenResult:
    """First eigenvalue with its positive eigenfunction sampled on a grid.

    The bracket [lo, hi] around the unique lam where the
    zero-free-and-positive-defect predicate flips is narrowed to width
    tol + 1e-14*|lam| (see the module docstring).  One shot at the converged
    value is sampled on ``DEFAULT_GRID`` plus every breakpoint and normalized
    to max 1; its end state gives the residual.

    Raises ToleranceNotReached if 200 root-find steps cannot reach that width.
    """
    _check_tol(tol)
    args = compile_arrays(q, bc)
    lam, width = _solve_arrays(*args, tol)
    xs = np.union1d(DEFAULT_GRID, args[0])
    ys, res = _sample_eigenfunction(*args, lam, xs)
    return EigenResult(lam, xs, ys, res, width)


def _sample_eigenfunction(edges, vals, atomw, k0sq, k1sq, lam, xs):
    """One shot at lam, sampled on its way to x=1 on xs, sorted and holding every edge.

    Each cell takes its atom jump, evaluates the cell formula on its own
    slice of xs in numpy, then advances and max-norm rescales exactly as
    ``shoot_kernel`` does, so the returned residual y'(1) + k1sq*y(1) is the
    one ``shoot_kernel`` gives at lam.  The sweep starts from
    ``start_state(k0sq)``, as ``shoot_kernel`` does, so no state past the
    first cell differs from its state.  The samples are scaled back by the
    rescalings' logs, relative to that start, and normalized to max 1.

    The samples have the bits of the cell formula evaluated one sample at a
    time with ``math``: the array operations round as the scalar ones, in
    the same order; numpy's cos and sin round as math's do
    (``tests/test_block_bits.py``); cosh and sinh, where numpy's differ in
    the last bit, are math's, one call per sample.

    Returns (ys, residual).
    """
    n = len(xs)
    # cell i holds edges[i] <= x < edges[i + 1]; the last one also x = 1
    bounds = [0, *np.searchsorted(xs, edges[1:-1]).tolist(), n]
    raw, scratch = np.empty(n), np.empty(n)
    lns = []
    (y, yp), ln = start_state(k0sq), 0.0
    for i in range(len(vals)):
        if i > 0 and atomw[i] != 0.0:
            yp += atomw[i] * y
        left, w = edges[i], lam - vals[i]
        j, end = bounds[i], bounds[i + 1]
        ys, t = raw[j:end], np.subtract(xs[j:end], left, out=scratch[j:end])
        # propagate_step's cell formula, inline with one sqrt and branch per
        # cell and in place on the cell's slice: y*cos(st) + yp*sin(st)/s,
        # y + yp*t or y*cosh(st) + yp*sinh(st)/s.  Calling propagate_step per
        # sample takes 3-6x as long
        if w == 0.0:
            np.multiply(t, yp, out=ys)
            ys += y
        else:
            s = math.sqrt(abs(w))
            st = np.multiply(t, s, out=t)
            # cos or cosh of st into ys, sin or sinh into st
            if w > 0.0:
                np.cos(st, out=ys)
                np.sin(st, out=st)
            else:
                if st[-1] > 690.0:
                    raise NonFiniteState("eigenfunction sampling overflowed")
                stl = st.tolist()
                ys[:] = np.fromiter(map(math.cosh, stl), float, len(stl))
                st[:] = np.fromiter(map(math.sinh, stl), float, len(stl))
            ys *= y
            st *= yp
            st /= s
            ys += st
        lns.append(ln)
        y, yp, _, shift = propagate_step(y, yp, w, edges[i + 1] - left)
        sc = max(abs(y), abs(yp))
        if not (sc > 0.0 and math.isfinite(sc)):
            raise NonFiniteState(_NONFINITE)
        y, yp = y / sc, yp / sc
        ln = ln + shift + math.log(sc)

    lns = np.repeat(lns, np.diff(bounds))
    lns -= lns.max()
    raw *= np.exp(lns, out=lns)
    top = raw.max()
    if not (top > 0.0 and np.isfinite(top)):
        raise NonFiniteState("eigenfunction sampling overflowed")
    # a sample <= 0 fails before the division, whose quotient of one far
    # below a small top overflows; a sample divided down to 0 fails after it
    if raw.min() <= 0.0 or np.divide(raw, top, out=raw).min() <= 0.0:
        raise NonFiniteState("sampled eigenfunction is not strictly positive")
    return raw, yp + k1sq * y


def fd_lambda1(q: Potential, bc: RobinBC, n: int) -> float:
    """Independent finite-difference oracle for the first eigenvalue.

    Assembles the (n+1)-node second-difference matrix with the Robin
    conditions eliminated through ghost points, samples segments at cell
    midpoints, spreads each atom as a weight/h column at the nearest node
    (twice that at an end node, whose row the ghost elimination doubles), and
    symmetrizes the boundary couplings.  The smallest eigenvalue of
    that symmetric tridiagonal matrix comes from LAPACK ``dstebz`` (Sturm-count
    bisection) through ``scipy.linalg.eigh_tridiagonal``.

    Raises NoConvergence if LAPACK reports that the bisection failed.
    scipy.linalg is imported here, on the first call, so that the solver and
    the command line load without it.
    """
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    if n < 100:
        raise ValueError("n must be >= 100")
    h = 1.0 / n
    mids = (np.arange(n) + 0.5) * h
    mv = q.value_at(mids)
    qd = np.empty(n + 1)
    qd[0] = mv[0]
    qd[n] = mv[-1]
    qd[1:n] = 0.5 * (mv[:-1] + mv[1:])
    for a in q.atoms:
        j = int(round(a.position * n))
        col = a.weight / h
        if j == 0 or j == n:
            col *= 2.0  # ghost elimination doubles the boundary rows
        qd[j] += col

    diag = 2.0 / h**2 + qd
    diag[0] += 2.0 * bc.k0sq / h
    diag[n] += 2.0 * bc.k1sq / h
    off = np.full(n, -1.0 / h**2)
    off[0] = off[-1] = -math.sqrt(2.0) / h**2  # symmetrized boundary couplings

    try:
        w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    except LinAlgError as exc:
        raise NoConvergence(f"fd_lambda1: {exc}") from exc
    return float(w[0])

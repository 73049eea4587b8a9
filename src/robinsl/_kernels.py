"""Scalar shooting kernels.

Everything here is written in plain ``math``-level Python so that numba can
compile it unchanged.  When numba is importable and the environment variable
``ROBINSL_NO_JIT`` is unset, every kernel is wrapped in ``@njit(cache=True)``;
otherwise the same functions run as ordinary Python (the pure fallback path).
The two paths execute identical code and must agree to roundoff.

The cell tables ``edges``, ``vals`` and ``atomw`` come from
``potential.compile_arrays`` as lists of Python floats.  The pure path reads
them several times per cell per shot, and a float read from a list keeps every
later operation on plain floats instead of numpy scalars; numba takes the same
lists as reflected lists.
"""

import math
import os
import warnings

_PI = math.pi

# Status codes returned by lambda1_kernel.
STATUS_OK = 0
STATUS_TOL = 1
STATUS_NONFINITE = 2


def _no_jit_requested():
    return os.environ.get("ROBINSL_NO_JIT", "").strip().lower() in ("1", "true", "yes")


if _no_jit_requested():
    JIT_ENABLED = False

    def jit(func):
        return func

else:
    try:
        from numba import njit as _njit

        JIT_ENABLED = True

        def jit(func):
            return _njit(cache=True)(func)

    except ImportError:  # pragma: no cover - exercised only without numba
        JIT_ENABLED = False

        def jit(func):
            return func

        warnings.warn("numba not available, robinsl kernels run uncompiled", RuntimeWarning)


@jit
def propagate_step(y, yp, w, h):
    """Advance (y, y') across a cell of width h on which y'' = -w*y.

    Returns (y1, yp1, nzeros, lnscale) where nzeros counts the zeros of y in
    the open cell interior and the true end state is (y1, yp1) * exp(lnscale).
    lnscale is nonzero only on the overflow-guarded hyperbolic branch.
    """
    if w > 0.0:
        s = math.sqrt(w)
        sh = s * h
        c = math.cos(sh)
        sn = math.sin(sh)
        y1 = y * c + yp * sn / s
        yp1 = -y * s * sn + yp * c
        # zeros of R*cos(s*t - phi) for t in (0, h)
        phi = math.atan2(yp / s, y)
        a = (-phi - 0.5 * _PI) / _PI
        b = (sh - phi - 0.5 * _PI) / _PI
        k_lo = int(math.floor(a)) + 1
        k_hi = int(math.ceil(b)) - 1
        nz = k_hi - k_lo + 1
        if nz < 0:
            nz = 0
        return y1, yp1, nz, 0.0
    if w == 0.0:
        nz = 0
        if yp != 0.0:
            t = -y / yp
            if 0.0 < t < h:
                nz = 1
        return y + yp * h, yp, nz, 0.0
    s = math.sqrt(-w)
    sh = s * h
    nz = 0
    if yp != 0.0:
        r = -s * y / yp
        if 0.0 < r < 1.0:
            if math.atanh(r) < sh:
                nz = 1
    if sh <= 350.0:
        c = math.cosh(sh)
        sn = math.sinh(sh)
        return y * c + yp * sn / s, y * s * sn + yp * c, nz, 0.0
    # factor out exp(sh) so extreme cells cannot overflow
    e = math.exp(-2.0 * sh)
    c = 0.5 * (1.0 + e)
    sn = 0.5 * (1.0 - e)
    return y * c + yp * sn / s, y * s * sn + yp * c, nz, sh


@jit
def shoot_kernel(edges, vals, atomw, k0sq, k1sq, lam):
    """Shoot from the left boundary condition to x=1.

    edges[0] = 0 and edges[-1] = 1 partition the interval; vals[i] is the
    constant potential on cell i and atomw[i] the delta weight sitting at
    edges[i] (endpoint weights must be folded into the coefficients first).
    The state is max-norm rescaled after every cell, so only the sign of the
    returned residual y'(1) + k1sq*y(1) is meaningful at large |lam|.

    The mismatch is the Prüfer angle at x=1 minus the right boundary angle,
    pi*zero_count + atan2(s*y, s*y') - atan2(1, -k1sq) with s = (-1)**zero_count:
    continuous and strictly increasing in lam, 0 at the first eigenvalue and
    n*pi at the (n+1)-th.

    Returns (residual, zero_count, mismatch, ok).
    """
    y = 1.0
    yp = k0sq
    nz = 0
    ncells = len(vals)
    for i in range(ncells):
        if i > 0 and atomw[i] != 0.0:
            yp = yp + atomw[i] * y
        h = edges[i + 1] - edges[i]
        if h > 0.0:
            y, yp, dz, _ = propagate_step(y, yp, lam - vals[i], h)
            nz += dz
        sc = abs(y)
        if abs(yp) > sc:
            sc = abs(yp)
        if not (sc > 0.0 and math.isfinite(sc)):
            return 0.0, -1, 0.0, False
        y = y / sc
        yp = yp / sc
    sg = 1.0 - 2.0 * (nz % 2)
    mismatch = _PI * nz + math.atan2(sg * y, sg * yp) - math.atan2(1.0, -k1sq)
    return yp + k1sq * y, nz, mismatch, True


@jit
def _margin(lam, tol):
    """Half-width of the window around an eigenvalue estimate that is certified."""
    return max(0.25 * tol, 1e-12 * max(1.0, abs(lam)))


@jit
def _angle_root(edges, vals, atomw, k0sq, k1sq, tol, lo, flo, hi, fhi):
    """Illinois iteration on the mismatch inside [lo, hi], where flo < 0 < fhi.

    Each step is pulled toward the bracket midpoint just enough that the
    bracket keeps pace with bisection plus three steps (the projection of the
    ITP method, Oliveira and Takahashi, ACM TOMS 47, 2021).  So a mismatch
    that jumps, as when rounding loses a decaying mode, costs at most three
    shots more than bisection.  Stops once the bracket is no wider than twice
    the margin of its midpoint.  Returns (midpoint, ok); ok is False when a
    shot failed.
    """
    a, fa, b, fb = lo, flo, hi, fhi
    # bisection needs n halvings to reach 2*eps, eps the smallest margin in
    # [lo, hi]; step j = 0, 1, ... leaves a bracket of at most
    # eps * 2**(n + 3 - j), three halvings behind bisection
    eps = _margin(max(lo, -hi, 0.0), tol)
    reach = 2.0 * eps
    while reach < b - a:
        reach = 2.0 * reach
    reach = 4.0 * reach
    side = 0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= 2.0 * _margin(mid, tol):
            break
        c = a - fa * (b - a) / (fb - fa)
        r = reach - 0.5 * (b - a)
        reach = 0.5 * reach
        if c < mid - r:
            c = mid - r
        elif c > mid + r:
            c = mid + r
        if not (a < c < b):
            c = mid
        _, _, fc, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, c)
        if not ok:
            return mid, False
        if fc < 0.0:
            a, fa = c, fc
            if side < 0:
                fb = 0.5 * fb
            side = -1
        elif fc > 0.0:
            b, fb = c, fc
            if side > 0:
                fa = 0.5 * fa
            side = 1
        else:
            return c, True
    return 0.5 * (a + b), True


@jit
def _certify(edges, vals, atomw, k0sq, k1sq, tol, lo, hi, est):
    """Window (a, b) around est outside which the bracket predicate is known.

    Shoots the predicate "no zero and positive residual" at est - m and
    est + m, widening m eightfold until it holds at the first point and fails
    at the second; an end that reaches the bracket [lo, hi] is replaced by it.
    Returns (lo, hi), the whole bracket, if a shot failed.
    """
    m = _margin(est, tol)
    for _ in range(100):
        a = est - m
        b = est + m
        m = 8.0 * m
        if a <= lo:
            a = lo
        else:
            r, zc, _, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, a)
            if not ok:
                break
            if not (zc == 0 and r > 0.0):
                continue
        if b >= hi:
            return a, hi
        r, zc, _, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, b)
        if not ok:
            break
        if not (zc == 0 and r > 0.0):
            return a, b
    return lo, hi


@jit
def lambda1_kernel(edges, vals, atomw, k0sq, k1sq, tol):
    """Locate the smallest eigenvalue: the bisection result, with fewer shots.

    A trial lam lies below the first eigenvalue exactly when the shot solution
    has no interior zero and positive residual.  The bracket [lo, hi] is grown
    geometrically on both sides of that predicate and then bisected to width
    tol (at most 200 halvings).  The result is defined by that bisection.

    Most of its shots are skipped.  The angle mismatch of the same shots is
    continuous and increasing with its root at the first eigenvalue, so an
    Illinois iteration on it (_angle_root) finds an estimate within a margin
    m = max(tol/4, 1e-12*max(1, |estimate|)) in a few shots.  The predicate
    is then shot at estimate -/+ m, widened eightfold until it holds below
    and fails above (_certify).  By the monotonicity the bisection itself
    rests on, the predicate is then true on (-inf, a] and false on [b, inf);
    the margin keeps a and b clear of the few ulps around the eigenvalue
    where rounding can flip it.  The bisection then runs unchanged, except
    that a midpoint outside (a, b) takes its known outcome without a shot.
    So lo, hi, the final shot and every returned value are those of the plain
    bisection, bit for bit.  A failed shot in the Illinois or certification
    phase only turns the skipping off, so every midpoint is shot and the
    status is the plain bisection's.

    Returns (lam, bracket_width, residual, zero_count, status).
    """
    total = 0.0
    for i in range(len(vals)):
        total += vals[i] * (edges[i + 1] - edges[i])
    for i in range(len(atomw)):
        total += atomw[i]

    lo = -abs(total)
    if lo > 0.0:
        lo = 0.0
    flo = 0.0
    found = False
    for _ in range(200):
        r, zc, flo, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, lo)
        if not ok:
            return 0.0, 0.0, 0.0, 0, STATUS_NONFINITE
        if zc == 0 and r > 0.0:
            found = True
            break
        lo = 2.0 * lo - 1.0
    if not found:
        return 0.0, 0.0, 0.0, 0, STATUS_TOL

    hi = lo + 1.0
    fhi = 0.0
    found = False
    for _ in range(200):
        r, zc, fhi, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, hi)
        if not ok:
            return 0.0, 0.0, 0.0, 0, STATUS_NONFINITE
        if zc >= 1 or r < 0.0:
            found = True
            break
        hi = lo + 2.0 * (hi - lo)
    if not found:
        return 0.0, 0.0, 0.0, 0, STATUS_TOL

    a, b = lo, hi
    est, ok = _angle_root(edges, vals, atomw, k0sq, k1sq, tol, lo, flo, hi, fhi)
    if ok:
        a, b = _certify(edges, vals, atomw, k0sq, k1sq, tol, lo, hi, est)

    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            r, zc, _, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, mid)
            if not ok:
                return 0.0, 0.0, 0.0, 0, STATUS_NONFINITE
            if zc == 0 and r > 0.0:
                lo = mid
            else:
                hi = mid

    width = hi - lo
    lam = 0.5 * (lo + hi)
    r, zc, _, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, lam)
    if not ok:
        return 0.0, 0.0, 0.0, 0, STATUS_NONFINITE
    status = STATUS_OK if width <= tol else STATUS_TOL
    return lam, width, r, zc, status

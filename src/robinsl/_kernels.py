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
def lambda1_kernel(edges, vals, atomw, k0sq, k1sq, tol):
    """Locate the smallest eigenvalue to a bracket of width tol + 1e-14*|lam|.

    A trial lam lies below the first eigenvalue exactly when the shot solution
    has no interior zero and positive residual.  lo is grown geometrically
    down until that predicate holds.  hi starts from a value already known to
    fail it: the last lo that failed, when lo had to move, else the Rayleigh
    quotient of y = 1 (k0sq + k1sq + the integral of q with atoms by weight,
    an upper bound on the first eigenvalue) plus a little slack.  hi is grown
    only if that value passes.

    Inside [lo, hi] the angle mismatch of each shot, continuous and
    increasing with its root at the first eigenvalue, picks the next trial
    lam: an Illinois step, pulled toward the bracket midpoint just enough that
    the bracket keeps pace with bisection plus three steps (the projection of
    the ITP method, Oliveira and Takahashi, ACM TOMS 47, 2021).  So a mismatch
    that jumps, as when rounding loses a decaying mode, costs at most three
    shots more than bisection.  The predicate of the same shot moves lo or
    hi, so both ends stay certified.  The loop stops once hi - lo <= tol +
    1e-14*|lam|; the relative term, below the 12 printed digits, keeps that
    width above the float spacing at any lam.

    Returns (lam, bracket_width, status): lam is the bracket midpoint, which
    is not shot; a caller that needs the state there (the eigenfunction
    sampler) sweeps it itself.  tol must be positive.
    """
    total = 0.0
    for i in range(len(vals)):
        total += vals[i] * (edges[i + 1] - edges[i])
    for i in range(len(atomw)):
        total += atomw[i]

    lo = -abs(total)
    bound = k0sq + k1sq + total
    hi = bound + 1e-3 * (1.0 + abs(bound))
    flo = 0.0
    fhi = 0.0
    hi_known = False
    found = False
    for _ in range(200):
        r, zc, f, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, lo)
        if not ok:
            return 0.0, 0.0, STATUS_NONFINITE
        if zc == 0 and r > 0.0:
            flo = f
            found = True
            break
        hi, fhi, hi_known = lo, f, True
        lo = 2.0 * lo - 1.0
    if not found:
        return 0.0, 0.0, STATUS_TOL

    if not hi_known:
        if hi <= lo:
            hi = lo + 1.0
        for _ in range(200):
            r, zc, fhi, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, hi)
            if not ok:
                return 0.0, 0.0, STATUS_NONFINITE
            if not (zc == 0 and r > 0.0):
                hi_known = True
                break
            step = hi - lo
            lo, flo = hi, fhi
            hi = hi + 2.0 * step
        if not hi_known:
            return 0.0, 0.0, STATUS_TOL

    # bisection needs n halvings to reach the smallest stopping width w in
    # [lo, hi]; step j = 0, 1, ... leaves a bracket of at most
    # w * 2**(n + 2 - j), three steps behind bisection
    reach = tol + 1e-14 * max(lo, -hi, 0.0)
    while reach < hi - lo:
        reach = 2.0 * reach
    reach = 4.0 * reach
    side = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (tol + 1e-14 * abs(mid))
        if hi - lo <= 2.0 * half or not lo < mid < hi:
            break
        c = mid
        if fhi > flo:
            c = lo - flo * (hi - lo) / (fhi - flo)
        r = reach - 0.5 * (hi - lo)
        reach = 0.5 * reach
        if c < mid - r:
            c = mid - r
        elif c > mid + r:
            c = mid + r
        # a step that lands next to an end, as at a root found to rounding,
        # keeps half a stopping width from it, so the far side closes next
        if c < lo + half:
            c = lo + half
        elif c > hi - half:
            c = hi - half
        if not lo < c < hi:
            c = mid
        res, zc, fc, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, c)
        if not ok:
            return 0.0, 0.0, STATUS_NONFINITE
        if zc == 0 and res > 0.0:
            lo, flo = c, fc
            if side < 0:
                fhi = 0.5 * fhi
            side = -1
        else:
            hi, fhi = c, fc
            if side > 0:
                flo = 0.5 * flo
            side = 1

    lam = 0.5 * (lo + hi)
    return lam, hi - lo, STATUS_OK if hi - lo <= tol + 1e-14 * abs(lam) else STATUS_TOL

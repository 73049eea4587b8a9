"""Scalar shooting kernels.

Plain ``math``-level Python: one solve at a time, for ``lambda1``,
``lambda1_value`` and the extrema.

The cell tables ``edges``, ``vals`` and ``atomw`` come from
``potential.cell_tables`` (through ``compile_arrays``, which also adds the
endpoint masses to k0sq and k1sq) as lists of Python floats.  The kernels
read them several times per cell per shot, and a float read from a list
keeps every later operation on plain floats instead of numpy scalars.
``check_bounds`` solves its samples together with their lockstep twins in
``_lockstep``, which give each sample the bits these give it; they hand
``lambda1_kernel`` only the last few lanes of a batch and the lanes that
leave the lockstep.  ``start_state`` is the one place that builds a shot's
start state: the lockstep's shots and check_bounds' first-order starts take
theirs from it too.
"""

import math

_PI = math.pi

# Status codes returned by lambda1_kernel.
STATUS_OK = 0
STATUS_TOL = 1
STATUS_NONFINITE = 2


def propagate_step(y, yp, w, h):
    """Advance (y, y') across a cell of width h on which y'' = -w*y.

    Returns (y1, yp1, nzeros, lnscale) where nzeros counts the zeros of y in
    the open cell interior and the true end state is (y1, yp1) * exp(lnscale).
    lnscale is nonzero only on the overflow-guarded hyperbolic branch.
    A linear or hyperbolic cell, or a trigonometric one with s*h < pi, holds
    at most one zero: an interior one exactly when y changes sign across it.
    A trigonometric cell with s*h >= pi counts its zeros from the phase.
    """
    shift = 0.0
    if w > 0.0:
        s = math.sqrt(w)
        sh = s * h
        c = math.cos(sh)
        sn = math.sin(sh)
        y1 = y * c + yp * sn / s
        yp1 = -y * s * sn + yp * c
        if sh >= _PI:
            # zeros of R*cos(s*t - phi) for t in (0, h); sh >= pi puts b at
            # least a + 1, so the count is never negative
            phi = math.atan2(yp / s, y)
            a = (-phi - 0.5 * _PI) / _PI
            b = (sh - phi - 0.5 * _PI) / _PI
            k_lo = int(math.floor(a)) + 1
            k_hi = int(math.ceil(b)) - 1
            return y1, yp1, k_hi - k_lo + 1, 0.0
    elif w == 0.0:
        y1 = y + yp * h
        yp1 = yp
    else:
        s = math.sqrt(-w)
        sh = s * h
        if sh <= 350.0:
            c = math.cosh(sh)
            sn = math.sinh(sh)
        else:
            # factor out exp(sh) so extreme cells cannot overflow
            e = math.exp(-2.0 * sh)
            c = 0.5 * (1.0 + e)
            sn = 0.5 * (1.0 - e)
            shift = sh
        y1 = y * c + yp * sn / s
        yp1 = y * s * sn + yp * c
    return y1, yp1, 1 if y < 0.0 < y1 or y1 < 0.0 < y else 0, shift


_INF = math.inf


def start_state(k0sq):
    """The start state (y, y') of a shot: (1, k0sq), scaled by 2**-e where |k0sq| > 1.

    e = frexp(k0sq)[1], so |y'| < 1.  The scale is a power of two, so the
    state is exact and every product and sum of the first cell scales by
    the same power: after the first max-norm rescale the state has the bits
    of the start (1, k0sq) wherever that shot is finite, and the first
    cell's integral of y^2, whose y'^2 term overflows past k0sq ~ 1.34e154
    unscaled, stays finite at any finite k0sq.  From k0sq = 2**511 on, the
    scaled y*y = 2**(-2e) is subnormal, so a product with it can lose low
    bits; but in that integral such a product is below 2**-1022 where it is
    inexact, and it is added to a term more than 2**400 times larger
    (y'^2 >= 1/4, or h*y*y' on a cell wider than MERGE_TOL), so the lost
    bits round away.
    """
    if -1.0 <= k0sq <= 1.0:
        return 1.0, k0sq
    m, e = math.frexp(k0sq)
    return math.ldexp(1.0, -e), m


def shoot_kernel(edges, vals, atomw, k0sq, k1sq, lam):
    """Shoot from the left boundary condition to x=1.

    edges[0] = 0 and edges[-1] = 1 partition the interval into cells wider
    than MERGE_TOL, as cell_tables builds them; vals[i] is the
    constant potential on cell i and atomw[i] the delta weight sitting at
    edges[i].  atomw[0] and atomw[-1] are 0: a mass at 0 or 1 is part of
    k0sq or k1sq, as compile_arrays passes it.
    The shot starts from start_state(k0sq), (1, k0sq) up to a power of two,
    and the state is max-norm rescaled after every cell, so only the sign of
    the returned residual y'(1) + k1sq*y(1) is meaningful at large |lam| or
    k0sq.

    The mismatch is the Prüfer angle at x=1 minus the right boundary angle,
    pi*zero_count + atan2(s*y, s*y') - atan2(1, -k1sq) with s = (-1)**zero_count:
    continuous and strictly increasing in lam, 0 at the first eigenvalue and
    n*pi at the (n+1)-th.  Its slope in lam is the integral of y^2 over [0, 1]
    over y(1)^2 + y'(1)^2 (the start and the atom jumps do not depend on lam).
    On a cell where y'' = -w*y the integral is (h*(w*y0^2 + y0'^2) + y0*y0' -
    y1*y1') / (2w), from the cell's end states, or a series in w*h^2 where
    that cancels; the running sum is rescaled with the state.

    Returns (residual, zero_count, mismatch, slope, ok).
    """
    # start_state's |k0sq| <= 1 case inline: the call costs a tenth of a short shot
    y, yp = (1.0, k0sq) if -1.0 <= k0sq <= 1.0 else start_state(k0sq)
    nz = 0
    sq = 0.0  # integral of y^2 so far, in the units of the current state
    ncells = len(vals)
    for i in range(ncells):
        if i > 0 and atomw[i] != 0.0:
            yp = yp + atomw[i] * y
        h = edges[i + 1] - edges[i]
        w = lam - vals[i]
        z = w * h * h
        if -1e-4 < z < 1e-4:
            # the closed form divides by w and cancels here: the integrals
            # of cos^2, 2*cos*sin/s and sin^2/s^2 over the cell as series
            # in u = -4*w*h^2, to a relative 1e-14
            u = -4.0 * z
            cc = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 240.0))
            cs = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 360.0))
            ss = 1.0 / 3.0 + u * (1.0 / 60.0 + u * (1.0 / 2520.0))
            sq += h * (y * y * cc + h * (y * yp * cs + h * yp * yp * ss))
            half_w = 0.0
        else:
            half_w = 0.5 / w
            sq += (h * (w * y * y + yp * yp) + y * yp) * half_w
        y, yp, dz, shift = propagate_step(y, yp, w, h)
        nz += dz
        sc = abs(y)
        if abs(yp) > sc:
            sc = abs(yp)
        if not 0.0 < sc < _INF:
            return 0.0, -1, 0.0, 0.0, False
        y = y / sc
        yp = yp / sc
        if shift:
            sq = sq * math.exp(-2.0 * shift)
        # the integral so far in the units of the rescaled state, less y1*y1'/(2w)
        sq = sq / sc / sc - y * yp * half_w
    sg = 1.0 - 2.0 * (nz % 2)
    mismatch = _PI * nz + math.atan2(sg * y, sg * yp) - math.atan2(1.0, -k1sq)
    return yp + k1sq * y, nz, mismatch, sq / (y * y + yp * yp), True


def lambda1_kernel(edges, vals, atomw, k0sq, k1sq, tol, start=math.nan):
    """Locate the smallest eigenvalue to a bracket of width tol + 1e-14*|lam|.

    A trial lam lies below the first eigenvalue exactly when the shot solution
    has no interior zero and positive residual; the predicate of every shot
    moves lo up or hi down, so both ends stay certified.  The angle mismatch
    of the same shot, continuous and increasing with its root at the first
    eigenvalue, and its slope pick the next trial lam: a Newton step, less
    the second-order Taylor term once two shots give f'' by the difference
    of their slopes (Pryce, Numerical Solution of Sturm-Liouville Problems,
    1993, on the miss-distance and its lam-derivative).  The next shot goes
    past that point toward the side this shot did not certify, by twice the
    error the same curvature predicts for it, at least a quarter stopping
    width, so that the shots straddle the root; a step shorter than half a
    stopping width goes half a width past, so the bracket closes next.

    The first shot is at start when it is finite (check_bounds passes a
    first-order estimate about the zero potential, an extremum's cross-check
    the reported value), else at the Rayleigh quotient of y = 1: k0sq +
    k1sq + the integral of q with atoms by weight, an upper bound on the
    first eigenvalue.  A first shot that is not finite, as where that bound
    overflows, is not taken: the solve ends STATUS_NONFINITE.  While one
    end is unknown, one search steps toward it (up when rounding has put an
    exact start just below the eigenvalue), never past a limit: that bound
    plus a little slack above, or 2*(1 + |lam|) past a shot that rounding
    put beyond it; the next point of the geometric search for lo below,
    -|integral of q| or 2*lo - 1 below it.  A step the wrong way, and every
    step after a closing shot that stayed on the certified side, goes to
    the limit.

    Once both ends are known, a step outside the bracket, or one that does
    not halve the last move, bisects (Numerical Recipes' rtsafe): at
    sqrt((lo + 1)*(hi + 1)) - 1 where lo >= 0 and hi > 16*(lo + 1), so that
    a bracket spanning decades, as [0, ~w] under a huge positive potential
    w, shrinks by decades, else at the midpoint.  Every step is pulled
    toward the bracket midpoint just enough that the bracket
    keeps pace with bisection plus three steps (the projection of the ITP
    method, Oliveira and Takahashi, ACM TOMS 47, 2021).  So a mismatch that
    jumps, as when rounding loses a decaying mode, costs at most three shots
    more than bisection.  A shot whose state vanishes or overflows inside
    the bracket, as a trial lam at the eigenvalue to the last bits can past
    a deep atom, is taken again a quarter stopping width toward the
    midpoint, at most three times.  The loop stops once hi - lo <= tol +
    1e-14*|lam|; the relative term, below the 12 printed digits, keeps that
    width above the float spacing at any lam.

    On check_bounds' samples of 1 to 16 segments at tol 1e-10 this takes
    4.2-4.6 shots per solve (at most 6) from the first-order start and
    4.4-7.3 (at most 10) from the Rayleigh quotient, by coefficient pair.

    Returns (lam, bracket_width, status): lam is the bracket midpoint, which
    is not shot; a caller that needs the state there (the eigenfunction
    sampler) sweeps it itself.  A bracket that never closed has width inf.
    tol must be positive.
    """
    total = 0.0
    for i in range(len(vals)):
        total += vals[i] * (edges[i + 1] - edges[i])
    for i in range(len(atomw)):
        total += atomw[i]

    bound = k0sq + k1sq + total
    up = bound + 1e-3 * (1.0 + abs(bound))
    down = -abs(total)
    x = start if math.isfinite(start) else bound
    if not math.isfinite(x):
        # a Rayleigh bound past the float range: no shot can be taken there
        return 0.0, 0.0, STATUS_NONFINITE
    lo = -math.inf
    hi = math.inf
    px = math.nan  # the previous shot and its slope
    pslope = math.nan
    reach = 0.0
    closing = False
    stalled = False
    lost = 0
    for _ in range(200):
        res, zc, f, slope, ok = shoot_kernel(edges, vals, atomw, k0sq, k1sq, x)
        if not ok:
            # a trial lam at the eigenvalue to the last bits can cancel the
            # growing mode past a deep atom to a zero state; inside a bracket,
            # shoot again a quarter stopping width toward its middle: a
            # bracket that has not closed is wider than a stopping width, so
            # the shot stays inside it
            lost += 1
            if lost > 3 or math.isinf(lo) or math.isinf(hi):
                return 0.0, 0.0, STATUS_NONFINITE
            nudge = 0.25 * (tol + 1e-14 * abs(x))
            x = x + nudge if x < 0.5 * (lo + hi) else x - nudge
            continue
        below = zc == 0 and res > 0.0
        if below:
            lo = x
        else:
            hi = x
        # Newton's point t, less the second-order term of the Taylor series
        # where the last two shots give f'' by the difference of their slopes,
        # and the error of t that the same curvature predicts
        t = math.nan
        err = math.nan
        moved = abs(x - px)
        if slope > 0.0:
            d = -f / slope
            t = x + d
            if moved > 0.0:
                bend = 0.5 * (slope - pslope) / ((x - px) * slope)  # f''/(2f')
                err = abs(bend) * d * d
                if err < 0.5 * abs(d):
                    t = t - bend * d * d
                    err = bend * bend * d * d * (moved + 3.0 * abs(d))
        px = x
        pslope = slope
        # the next shot goes past t, toward the side this shot did not
        # certify: by twice t's error, no more than the step and at least a
        # quarter stopping width; by half a width when the step is shorter
        # than that, to close the bracket
        step = abs(t - x)
        half = 0.5 * (tol + 1e-14 * abs(x))
        past = 0.5 * half
        if 2.0 * err > past:
            past = min(2.0 * err, step)
        if math.isinf(lo) or math.isinf(hi):
            # toward the open end, never past its limit: the Rayleigh bound
            # above (beyond it only by rounding, then geometric), the next
            # point of the geometric search below.  After a closing shot that
            # landed on the certified side the mismatch misleads, and the
            # rest of the search goes to the limit
            stalled = stalled or closing
            closing = step < half
            g = 1.0 if below else -1.0
            if below and x >= up:
                up = x + 2.0 * (1.0 + abs(x))
            limit = up if below else min(down, 2.0 * x - 1.0)
            t = t + g * (half if closing else past)
            if not g * (t - x) > 0.0 or stalled or g * (t - limit) > 0.0:
                t = limit
            x = t
            continue
        if step < half:
            past = half
        mid = 0.5 * (lo + hi)
        half = 0.5 * (tol + 1e-14 * abs(mid))
        if hi - lo <= 2.0 * half or not lo < mid < hi:
            break
        if reach == 0.0:
            # bisection needs n halvings to reach the smallest stopping width
            # w in [lo, hi]; step j = 0, 1, ... leaves a bracket of at most
            # w * 2**(n + 2 - j), three steps behind bisection
            reach = tol + 1e-14 * max(lo, -hi, 0.0)
            while reach < hi - lo:
                reach = 2.0 * reach
            reach = 4.0 * reach
        if not lo < t < hi or half <= step and moved < 2.0 * step:
            # bisect where Newton leaves the bracket or does not halve its
            # last move (Numerical Recipes' rtsafe), in log scale where the
            # bracket spans decades above zero
            t = mid
            if lo >= 0.0 and hi > 16.0 * (lo + 1.0):
                t = math.sqrt(lo + 1.0) * math.sqrt(hi + 1.0) - 1.0
        else:
            # the far end already lies past t; shoot there only if it is not
            c = t + past if below else t - past
            if lo + half < c < hi - half:
                t = c
        r = reach - 0.5 * (hi - lo)
        reach = 0.5 * reach
        if t < mid - r:
            t = mid - r
        elif t > mid + r:
            t = mid + r
        # a step that lands next to an end, as at a root found to rounding,
        # keeps half a stopping width from it, so the far side closes next
        if t < lo + half:
            t = lo + half
        elif t > hi - half:
            t = hi - half
        if not lo < t < hi:
            t = mid
        x = t

    if math.isinf(lo) or math.isinf(hi):
        return 0.0, math.inf, STATUS_TOL
    lam = 0.5 * (lo + hi)
    return lam, hi - lo, STATUS_OK if hi - lo <= tol + 1e-14 * abs(lam) else STATUS_TOL

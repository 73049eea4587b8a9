"""Lockstep twins of the shooting kernels: many atom-free samples per numpy pass.

``check_bounds`` solves thousands of random samples.  ``lambda1_lanes``
solves them all at once, one numpy operation per root-finding step over
every lane, and gives each lane the bits of ``_kernels.lambda1_kernel`` on
its own tables (``shoot_lanes`` likewise for ``shoot_kernel``).  Every
operation of the scalar kernels is evaluated in their order, under three
rules:

* numpy does only + - * /, sqrt, cos, sin, abs, sign, copysign and
  comparisons, which round as math's do and decide as the scalar
  comparisons do (``tests/test_block_bits.py``);
* math's cosh, sinh and atan2 are mapped over just the cells or lanes
  that need them, since numpy's differ in the last bit;
* Python's max and min and its NaN comparisons are kept with ``where``,
  or ``putmask`` on a comparison's mask.

The lockstep takes only the steps of check_bounds' samples.  Its cell
steps are a trigonometric cell with s*h < pi, a hyperbolic one with
s*h <= 350, and the series of a short cell; each holds at most one zero,
counted as in propagate_step by the sign change of y across the cell.  Its
root-finding steps are the search down toward lo from a start above the
first eigenvalue, and the step inside a bracket that keeps pace with
bisection without the ITP projection (see ``lambda1_lanes``).  A lane that
needs any other step leaves the lockstep and is solved once by
``lambda1_kernel`` on its own tables, from its own start, so its bits hold
by construction.

The tables are (cells x lanes), the lanes sorted by cell count, most first,
so cell i is a prefix of the lanes.  A shot takes two passes.  The first
does, for every real cell of the table at once, the half of a cell step
that needs lam but not the state: w = lam - q, the series coefficients of
a short cell, sqrt(|w|), cos and sin or cosh and sinh, and which lanes
leave; padding gets no entry.  The second carries the state (y, y', the
integral of y^2, the zero count) a cell at a time over the lanes that have
the cell.  It writes views [:m] of a few lane buffers made once per shot,
through out= and in-place operators, so a cell makes no temporary array
outside the series, which runs only on its lanes.  Lanes that have
converged are dropped between shots.  A root-finding step evaluates the
search toward lo only when some lane has no bracket, and the step inside
a bracket only when some lane has one.

The scalar kernels stay: a single solve is cheaper without numpy's per-call
cost, and they are the reference these match.
"""

import itertools
import math

import numpy as np

from ._kernels import STATUS_OK, STATUS_TOL, lambda1_kernel

_PI = math.pi


def _cols(cells):
    # the lanes with a cell i, for each i, from cells sorted most first
    cells = cells.tolist()
    cols, j = [], len(cells)
    for i in range(cells[0] if cells else 0):
        while cells[j - 1] <= i:
            j -= 1
        cols.append(j)
    return cols


def shoot_lanes(h, vals, cols, k0sq, k1sq, lam):
    """shoot_kernel on atom-free tables, one lane per column of h and vals.

    h[i] and vals[i] hold the width and value of cell i of each lane, lanes
    sorted by cell count, most first; cols[i] counts the lanes that have a
    cell i.  lam holds each lane's trial value.  Returns (residual,
    zero_count, mismatch, slope, ok) as lane arrays, the count as floats.
    ok is False on a lane that leaves the lockstep: its shot meets a cell
    with w == 0, a hyperbolic one with s*h > 350 or a trigonometric one with
    s*h >= pi, or its scale fails; every other lane has the bits
    shoot_kernel returns.
    """
    n = len(lam)
    y = np.ones(n)
    yp = np.full(n, float(k0sq))
    yy = yp.copy()  # y*y' of the state entering the cell
    nz = np.zeros(n)
    sq = np.zeros(n)
    with np.errstate(all="ignore"):
        # pass 1, the work that needs lam but not the state, for every cell
        # at once: the real cells in rows, cell i of lanes 0..cols[i]-1 at
        # ends[i]..ends[i+1]-1, with no entry for padding
        real = np.arange(n) < np.array(cols).reshape(-1, 1)
        ends = [0, *itertools.accumulate(cols)]
        lane = np.broadcast_to(np.arange(n), real.shape)[real]
        hh = h[: len(cols)][real]
        w = lam[lane] - vals[: len(cols)][real]
        del real
        z = w * hh * hh
        # the series of the integral of y^2 where the closed form cancels:
        # row i's at ser[i]..ser[i+1]-1, on lanes sl with widths hs
        at = np.flatnonzero((-1e-4 < z) & (z < 1e-4))
        ser = np.searchsorted(at, ends).tolist()
        sl, hs = lane[at], hh[at]
        half_w = 0.5 / w
        half_w[at] = 0.0
        u = -4.0 * z[at]
        del z, at
        cc = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 240.0))
        cs = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 360.0))
        ss = 1.0 / 3.0 + u * (1.0 / 60.0 + u * (1.0 / 2520.0))
        del u

        # propagate_step: sqrt(|w|) is sqrt(w) or sqrt(-w), and cos and
        # sin are replaced where the cell is hyperbolic
        s = np.sqrt(np.abs(w))
        sh = s * hh
        c = np.cos(sh)
        sn = np.sin(sh)
        hyp = (w < 0.0) & (sh <= 350.0)
        k = np.flatnonzero(hyp)
        x = sh[k].tolist()
        c[k] = np.fromiter(map(math.cosh, x), float, len(x))
        sn[k] = np.fromiter(map(math.sinh, x), float, len(x))
        del k, x
        # -y*s*sn + yp*c on a trigonometric cell, y*s*sn + yp*c on a
        # hyperbolic one: yp*c - y*t*sn with t = -s there
        t = np.copysign(s, w)
        # every cell taken holds at most one zero, counted by the sign change
        # y1*sign(y) < 0; a lane with any other cell leaves
        trig = (w > 0.0) & (sh < _PI)
        gone = np.zeros(n, dtype=bool)
        gone[lane[~(trig | hyp)]] = True
        del sh, trig, hyp, lane

        # pass 2, the state, a cell at a time over the lanes that have it.
        # The common work writes views [:m] of lane buffers made once per
        # shot, so a cell allocates nothing outside the series
        y1_, yp1_, a_, b_ = np.empty((4, n))
        dz_ = np.empty(n, dtype=bool)
        for m, i0, i1, j0, j1 in zip(cols, ends, ends[1:], ser, ser[1:]):
            Y, YP, SQ, YY = y[:m], yp[:m], sq[:m], yy[:m]
            y1, yp1, a, b, dz = y1_[:m], yp1_[:m], a_[:m], b_[:m], dz_[:m]
            hc, hw, ci, si, sni = hh[i0:i1], half_w[i0:i1], c[i0:i1], s[i0:i1], sn[i0:i1]
            if j0 < j1:
                k, hk = sl[j0:j1], hs[j0:j1]
                yk, ypk = Y[k], YP[k]
                sqs = SQ[k] + hk * (yk * yk * cc[j0:j1] + hk * (YY[k] * cs[j0:j1] + hk * ypk * ypk * ss[j0:j1]))
            # SQ += (hc*(w*Y*Y + YP*YP) + YY)*hw
            np.multiply(w[i0:i1], Y, out=a)
            a *= Y
            np.multiply(YP, YP, out=b)
            a += b
            a *= hc
            a += YY
            a *= hw
            SQ += a
            if j0 < j1:
                SQ[k] = sqs

            # y1 = Y*c + YP*sn/s; yp1 = YP*c - Y*t*sn
            np.multiply(YP, sni, out=y1)
            y1 /= si
            np.multiply(Y, ci, out=a)
            y1 += a
            np.multiply(Y, t[i0:i1], out=yp1)
            yp1 *= sni
            np.multiply(YP, ci, out=a)
            np.subtract(a, yp1, out=yp1)
            # the crossing test y1*sign(Y) < 0
            np.sign(Y, out=a)
            a *= y1
            np.less(a, 0.0, out=dz)
            nz[:m] += dz

            # the scale where(|yp1| > |y1|, |yp1|, |y1|) into a, as Python's
            # max compares a NaN; dz is spent, so it holds the mask
            np.abs(y1, out=a)
            np.abs(yp1, out=b)
            np.greater(b, a, out=dz)
            np.putmask(a, dz, b)
            np.divide(y1, a, out=Y)
            np.divide(yp1, a, out=YP)
            SQ /= a
            SQ /= a
            np.multiply(Y, YP, out=YY)
            np.multiply(YY, hw, out=b)
            SQ -= b

        # a scale of 0, inf or NaN leaves y NaN from then on, or, past the
        # last cell, 0 beside a NaN y'
        gone |= np.isnan(y) | ((y == 0.0) & np.isnan(yp))
        sg = 1.0 - 2.0 * (nz - 2.0 * np.floor(0.5 * nz))
        phase = np.fromiter(map(math.atan2, (sg * y).tolist(), (sg * yp).tolist()), float, n)
        mismatch = _PI * nz + phase - math.atan2(1.0, -k1sq)
        return yp + k1sq * y, nz, mismatch, sq / (y * y + yp * yp), ~gone


def lambda1_lanes(edges, vals, n, k0sq, k1sq, tol, start):
    """lambda1_kernel on atom-free samples: (lam, bracket_width, status) as lane arrays.

    Row r of edges and vals holds the cell tables of lane r, padded past its
    n[r] edges with edges at 1 and values 0; start[r] is its first shot.
    Lane r gets the bits of ``lambda1_kernel(edges[r, :n[r]], vals[r, :n[r]
    - 1], [0.0] * n[r], k0sq, k1sq, tol, start[r])``, by that call for a
    lane that leaves: one whose shot leaves (see ``shoot_lanes``; a start
    that is not finite does), whose first shot lies below the eigenvalue,
    or whose step inside its bracket would bisect in log scale, or comes at
    its j-th such step with hi - lo above 2**(1 - j) times its width at
    step 0.  Within that allowance the ITP projection moves no step: the
    kernel's reach at step j is 4*2**-j times a width no less than that at
    step 0, so at least 2*(hi - lo), and mid -+ (reach - (hi - lo)/2) lies
    more than a bracket width outside [lo, hi], where the step already lies.
    The halvings are exact for a tol no less than the least normal float.
    """
    lanes = len(n)
    if not lanes:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    # lanes by cell count, most first, by Python's sort: numpy's argsort
    # would page in its sorting code for one call per batch
    order = np.array(sorted(range(lanes), key=np.asarray(n).tolist().__getitem__, reverse=True))
    cells = np.asarray(n)[order] - 1
    # the (cells x lanes) tables in C order, gathered once: h is the
    # difference of consecutive rows of edges
    e = np.take(edges.T, order, axis=1)
    h = e[1:] - e[:-1]
    del e
    v = np.take(vals.T, order, axis=1)
    start = np.asarray(start, dtype=float)[order]
    total = np.zeros(lanes)
    for i in range(len(v)):
        total += v[i] * h[i]
    lam = np.zeros(lanes)
    width = np.full(lanes, math.inf)
    status = np.full(lanes, STATUS_TOL)
    with np.errstate(all="ignore"):
        down = -np.abs(total)
        x = start
        lo = np.full(lanes, -math.inf)
        hi = np.full(lanes, math.inf)
        px = np.full(lanes, math.nan)  # the previous shot and its slope
        pslope = np.full(lanes, math.nan)
        cap = np.zeros(lanes)  # the bracket width a lane may keep at this step
        closing = np.zeros(lanes, dtype=bool)
        stalled = np.zeros(lanes, dtype=bool)
        live = np.arange(lanes)  # the lanes still shooting, in sorted order
        cols = _cols(cells)
        for _ in range(200):
            res, zc, f, slope, ok = shoot_lanes(h, v, cols, k0sq, k1sq, x)
            below = (zc == 0.0) & (res > 0.0)
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            # Newton's point t less the second-order term, and its error
            moved = np.abs(x - px)
            d = -f / slope
            rising = slope > 0.0
            t = np.where(rising, x + d, math.nan)
            bend = 0.5 * (slope - pslope) / ((x - px) * slope)
            curved = rising & (moved > 0.0)
            err = np.where(curved, np.abs(bend) * d * d, math.nan)
            curved &= err < 0.5 * np.abs(d)
            t = np.where(curved, t - bend * d * d, t)
            err = np.where(curved, bend * bend * d * d * (moved + 3.0 * np.abs(d)), err)
            px, pslope = x, slope
            step = np.abs(t - x)
            half = 0.5 * (tol + 1e-14 * np.abs(x))
            past = 0.5 * half
            past = np.where(2.0 * err > past, np.where(step < 2.0 * err, step, 2.0 * err), past)
            # a lane leaves when its shot left or no shot has yet been above
            # the eigenvalue; the others search down while lo is open
            out = ~ok | np.isinf(hi)
            opened = np.isinf(lo)
            some = opened.any()
            every = some and opened.all()

            if some:
                # toward lo, never past its limit
                stalled = np.where(opened, stalled | closing, stalled)
                closing = np.where(opened, step < half, closing)
                twice = 2.0 * x - 1.0
                limit = np.where(twice < down, twice, down)
                ends = t - np.where(closing, half, past)
                ends = np.where(~(ends < x) | stalled | (ends < limit), limit, ends)

            if every:
                done = np.zeros(len(x), dtype=bool)
                x = ends
            else:
                # both ends known: stop, or step inside the bracket
                past = np.where(step < half, half, past)
                mid = 0.5 * (lo + hi)
                half = 0.5 * (tol + 1e-14 * np.abs(mid))
                done = ~opened & ((hi - lo <= 2.0 * half) | ~((lo < mid) & (mid < hi)))
                inside = ~opened & ~done
                cap = np.where(inside & (cap == 0.0), 2.0 * (hi - lo), cap)
                bisect = ~((lo < t) & (t < hi)) | ((half <= step) & (moved < 2.0 * step))
                logscale = (lo >= 0.0) & (hi > 16.0 * (lo + 1.0))
                out |= inside & ((bisect & logscale) | (hi - lo > cap))
                cap = 0.5 * cap
                c = np.where(below, t + past, t - past)
                inner = np.where(bisect, mid, np.where((lo + half < c) & (c < hi - half), c, t))
                inner = np.where(inner < lo + half, lo + half, np.where(inner > hi - half, hi - half, inner))
                inner = np.where((lo < inner) & (inner < hi), inner, mid)
                x = np.where(opened, ends, inner) if some else inner

            fin = (done & ~out).nonzero()[0]
            if fin.size:
                _settle(lam, width, status, live[fin], lo[fin], hi[fin], tol)
            for i in live[out].tolist():
                # a lane that left, solved alone on its own tables
                r, m = order[i], cells[i] + 1
                row = edges[r, :m].tolist(), vals[r, : m - 1].tolist(), [0.0] * m
                lam[i], width[i], status[i] = lambda1_kernel(*row, k0sq, k1sq, tol, start[i].item())
            done |= out
            if done.any():
                keep = ~done
                live = live[keep]
                if not live.size:
                    break
                x, lo, hi, px, pslope, cap, down = (a[keep] for a in (x, lo, hi, px, pslope, cap, down))
                closing, stalled = closing[keep], stalled[keep]
                cols = _cols(cells[live])
                h, v = h[: len(cols), keep], v[: len(cols), keep]
        else:
            closed = ~np.isinf(lo)
            _settle(lam, width, status, live[closed], lo[closed], hi[closed], tol)
    back = np.empty(lanes, dtype=int)
    back[order] = np.arange(lanes)
    return lam[back], width[back], status[back]


def _settle(lam, width, status, at, lo, hi, tol):
    # the bracket midpoint and width of closed lanes, OK where it is narrow enough
    mid = 0.5 * (lo + hi)
    lam[at], width[at] = mid, hi - lo
    status[at] = np.where(hi - lo <= tol + 1e-14 * np.abs(mid), STATUS_OK, STATUS_TOL)

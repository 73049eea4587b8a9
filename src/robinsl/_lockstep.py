"""Lockstep twins of the shooting kernels: many atom-free samples per numpy pass.

``check_bounds`` solves thousands of random samples.  ``lambda1_lanes``
solves them all at once, one numpy operation per cell or root-finding step
over every lane, and gives each lane the bits of ``_kernels.lambda1_kernel``
on its own tables (``shoot_lanes`` likewise for ``shoot_kernel``).  Every
operation of the scalar kernels is evaluated in their order, under three
rules:

* numpy does only + - * /, sqrt, cos, sin, abs and comparisons, which round
  as math's do (``tests/test_block_bits.py``);
* math's cosh, sinh, exp, atanh and atan2 are mapped over just the lanes
  that need them, since numpy's differ in the last bit;
* Python's max and min and its NaN comparisons are kept with ``where``.

The tables are (cells x lanes), the lanes sorted by cell count, most first,
so cell i updates a prefix of the lanes and padding costs nothing.  A lane's
branch is a mask; the rare branches (hyperbolic, w == 0, a trigonometric
cell with s*h >= pi, the series of a short cell) run on the lanes that take
them.  Lanes that have converged are dropped between shots.

The scalar kernels stay: a single solve is cheaper without numpy's per-call
cost, numba compiles them, and they are the reference these match.
"""

import math

import numpy as np

from ._kernels import STATUS_NONFINITE, STATUS_OK, STATUS_TOL

_PI = math.pi
_HALF_PI = 0.5 * _PI


def _map(f, *xs):
    # the math function f over the lanes of the arrays xs
    return np.fromiter(map(f, *(x.tolist() for x in xs)), float, len(xs[0]))


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
    zero_count, mismatch, slope, ok) as lane arrays, the count as floats,
    each lane's the bits shoot_kernel returns.
    """
    n = len(lam)
    y = np.ones(n)
    yp = np.full(n, float(k0sq))
    nz = np.zeros(n)
    sq = np.zeros(n)
    flat = bool((vals == lam).any())  # some cell has w == 0
    with np.errstate(all="ignore"):
        for i, m in enumerate(cols):
            Y, YP, SQ = y[:m], yp[:m], sq[:m]
            hh = h[i, :m]
            w = lam[:m] - vals[i, :m]
            z = w * hh * hh
            half_w = 0.5 / w
            ser = ((-1e-4 < z) & (z < 1e-4)).nonzero()[0]
            if ser.size:
                # the series of the integral of y^2 where the closed form cancels
                hs, ys, yps = hh[ser], Y[ser], YP[ser]
                u = -4.0 * z[ser]
                cc = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 240.0))
                cs = 1.0 + u * (1.0 / 12.0 + u * (1.0 / 360.0))
                ss = 1.0 / 3.0 + u * (1.0 / 60.0 + u * (1.0 / 2520.0))
                sqs = SQ[ser] + hs * (ys * ys * cc + hs * (ys * yps * cs + hs * yps * yps * ss))
                half_w[ser] = 0.0
            SQ += (hh * (w * Y * Y + YP * YP) + Y * YP) * half_w
            if ser.size:
                SQ[ser] = sqs

            # propagate_step: sqrt(|w|) is sqrt(w) or sqrt(-w), and cos and
            # sin are replaced where the cell is hyperbolic
            s = np.sqrt(np.abs(w))
            sh = s * hh
            c = np.cos(sh)
            sn = np.sin(sh)
            neg = (w < 0.0).nonzero()[0]
            far = None
            if neg.size:
                beyond = ~(sh[neg] <= 350.0)
                near = neg
                if beyond.any():
                    # exp(sh) factored out, as shift
                    far, near = neg[beyond], neg[~beyond]
                    e = _map(math.exp, -2.0 * sh[far])
                    c[far] = 0.5 * (1.0 + e)
                    sn[far] = 0.5 * (1.0 - e)
                c[near] = _map(math.cosh, sh[near])
                sn[near] = _map(math.sinh, sh[near])
            y1 = Y * c + YP * sn / s
            # -y*s*sn + yp*c on a trigonometric cell, y*s*sn + yp*c on a
            # hyperbolic one
            t1 = Y * s * sn
            if neg.size:
                t1[neg] = -t1[neg]
            yp1 = YP * c - t1
            dz = ((Y < 0.0) & (0.0 < y1)) | ((y1 < 0.0) & (0.0 < Y))
            if neg.size:
                dz[neg] = False
                r = -s[neg] * Y[neg] / YP[neg]
                k = ((0.0 < r) & (r < 1.0)).nonzero()[0]
                nz[neg[k]] += _map(math.atanh, r[k]) < sh[neg[k]]
            rot = (sh >= _PI).nonzero()[0]
            rot = rot[w[rot] > 0.0]
            if rot.size:
                # zeros of R*cos(s*t - phi) in the cell
                dz[rot] = False
                phi = _map(math.atan2, YP[rot] / s[rot], Y[rot])
                a = (-phi - _HALF_PI) / _PI
                b = (sh[rot] - phi - _HALF_PI) / _PI
                nz[rot] += (np.ceil(b) - 1.0) - (np.floor(a) + 1.0) + 1.0
            if flat:
                lin = (w == 0.0).nonzero()[0]
                if lin.size:
                    yl, ypl, hl = Y[lin], YP[lin], hh[lin]
                    y1[lin] = yl + ypl * hl
                    yp1[lin] = ypl
                    t = -yl / ypl
                    dz[lin] = (0.0 < t) & (t < hl)
            nz[:m] += dz

            ay, ayp = np.abs(y1), np.abs(yp1)
            sc = np.where(ayp > ay, ayp, ay)
            np.divide(y1, sc, out=Y)
            np.divide(yp1, sc, out=YP)
            if far is not None:
                sq[far] *= e
            SQ /= sc
            SQ /= sc
            SQ -= Y * YP * half_w

        # a lane fails where its scale was 0, inf or NaN: y is NaN from then
        # on, or, past its last cell, 0 beside a NaN y'
        bad = np.isnan(y) | ((y == 0.0) & np.isnan(yp))
        sg = 1.0 - 2.0 * (nz % 2.0)
        mismatch = _PI * nz + _map(math.atan2, sg * y, sg * yp) - math.atan2(1.0, -k1sq)
        res = yp + k1sq * y
        slope = sq / (y * y + yp * yp)
    if bad.any():
        res[bad], nz[bad], mismatch[bad], slope[bad] = 0.0, -1.0, 0.0, 0.0
    return res, nz, mismatch, slope, ~bad


def _reach(lo, hi, tol):
    # tol + 1e-14*max(lo, -hi, 0) doubled until it is no less than hi - lo,
    # then times 4: the doublings counted from the binary exponents
    m = np.where(-hi > lo, -hi, lo)
    m = np.where(0.0 > m, 0.0, m)
    r = tol + 1e-14 * m
    fr, er = np.frexp(r)
    fh, eh = np.frexp(hi - lo)
    k = eh - er + (fr < fh)
    return np.ldexp(r, np.where(k > 0, k, 0) + 2)


def lambda1_lanes(edges, vals, n, k0sq, k1sq, tol, start):
    """lambda1_kernel on atom-free samples: (lam, bracket_width, status) as lane arrays.

    Row r of edges and vals holds the cell tables of lane r, padded past its
    n[r] edges with edges at 1 and values 0; start[r] is its first shot, NaN
    for the Rayleigh quotient.  Lane r gets the bits of
    ``lambda1_kernel(edges[r, :n[r]], vals[r, :n[r] - 1], [0.0] * n[r],
    k0sq, k1sq, tol, start[r])``.
    """
    lanes = len(n)
    if not lanes:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    # lanes by cell count, most first, by Python's sort: numpy's argsort
    # would page in its sorting code for one call per batch
    order = np.array(sorted(range(lanes), key=np.asarray(n).tolist().__getitem__, reverse=True))
    cells = np.asarray(n)[order] - 1
    # (cells x lanes) tables, a row at a time
    h = np.empty((edges.shape[1] - 1, lanes))
    v = np.empty((edges.shape[1] - 1, lanes))
    right = edges[order, 0]
    for i in range(len(h)):
        left, right = right, edges[order, i + 1]
        np.subtract(right, left, out=h[i])
        v[i] = vals[order, i]
    start = np.asarray(start, dtype=float)[order]
    total = np.zeros(lanes)
    for i in range(len(v)):
        total += v[i] * h[i]
    lam = np.zeros(lanes)
    width = np.full(lanes, math.inf)
    status = np.full(lanes, STATUS_TOL)
    with np.errstate(all="ignore"):
        bound = k0sq + k1sq + total
        up = bound + 1e-3 * (1.0 + np.abs(bound))
        down = -np.abs(total)
        x = np.where(np.isfinite(start), start, bound)
        lo = np.full(lanes, -math.inf)
        hi = np.full(lanes, math.inf)
        px = np.full(lanes, math.nan)  # the previous shot and its slope
        pslope = np.full(lanes, math.nan)
        reach = np.zeros(lanes)
        closing = np.zeros(lanes, dtype=bool)
        stalled = np.zeros(lanes, dtype=bool)
        lost = np.zeros(lanes, dtype=int)
        live = np.arange(lanes)  # the lanes still shooting, in sorted order
        cols = _cols(cells)
        for _ in range(200):
            res, zc, f, slope, ok = shoot_lanes(h, v, cols, k0sq, k1sq, x)
            bad = (~ok).nonzero()[0]
            if bad.size:
                kept = [a[bad] for a in (x, lo, hi, px, pslope, reach, up, closing, stalled)]
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
            opened = np.isinf(lo) | np.isinf(hi)

            # one end open: toward it, never past its limit
            stalled = np.where(opened, stalled | closing, stalled)
            closing = np.where(opened, step < half, closing)
            g = np.where(below, 1.0, -1.0)
            up = np.where(opened & below & (x >= up), x + 2.0 * (1.0 + np.abs(x)), up)
            twice = 2.0 * x - 1.0
            limit = np.where(below, up, np.where(twice < down, twice, down))
            ends = t + g * np.where(closing, half, past)
            ends = np.where(~(g * (ends - x) > 0.0) | stalled | (g * (ends - limit) > 0.0), limit, ends)

            # both ends known: stop, or step inside the bracket
            past = np.where(step < half, half, past)
            mid = 0.5 * (lo + hi)
            half = 0.5 * (tol + 1e-14 * np.abs(mid))
            done = ~opened & ((hi - lo <= 2.0 * half) | ~((lo < mid) & (mid < hi)))
            first = (~opened & ~done & (reach == 0.0)).nonzero()[0]
            if first.size:
                reach[first] = _reach(lo[first], hi[first], tol)
            bisect = ~((lo < t) & (t < hi)) | ((half <= step) & (moved < 2.0 * step))
            logscale = (lo >= 0.0) & (hi > 16.0 * (lo + 1.0))
            inner = np.where(logscale, np.sqrt(lo + 1.0) * np.sqrt(hi + 1.0) - 1.0, mid)
            c = np.where(below, t + past, t - past)
            inner = np.where(bisect, inner, np.where((lo + half < c) & (c < hi - half), c, t))
            r = reach - 0.5 * (hi - lo)
            reach = 0.5 * reach
            inner = np.where(inner < mid - r, mid - r, np.where(inner > mid + r, mid + r, inner))
            inner = np.where(inner < lo + half, lo + half, np.where(inner > hi - half, hi - half, inner))
            inner = np.where((lo < inner) & (inner < hi), inner, mid)
            x = np.where(opened, ends, inner)

            if bad.size:
                # a vanished or overflowed state: the shot counts for
                # nothing, and is taken again a quarter stopping width
                # toward the bracket's middle, at most three times
                xb, lo[bad], hi[bad], px[bad], pslope[bad], reach[bad], up[bad], closing[bad], stalled[bad] = kept
                lost[bad] += 1
                lob, hib = lo[bad], hi[bad]
                nudge = 0.25 * (tol + 1e-14 * np.abs(xb))
                middle = 0.5 * (lob + hib)
                xb = np.where(xb < middle, xb + nudge, xb - nudge)
                x[bad] = np.where((lob < xb) & (xb < hib), xb, middle)
                done[bad] = False
                dead = bad[(lost[bad] > 3) | np.isinf(lob) | np.isinf(hib)]
                lam[live[dead]], width[live[dead]], status[live[dead]] = 0.0, 0.0, STATUS_NONFINITE
            fin = done.nonzero()[0]
            if fin.size:
                _settle(lam, width, status, live[fin], lo[fin], hi[fin], tol)
            if bad.size:
                done[dead] = True
            if done.any():
                keep = ~done
                live = live[keep]
                if not live.size:
                    break
                x, lo, hi, px, pslope, reach, up, down = (a[keep] for a in (x, lo, hi, px, pslope, reach, up, down))
                closing, stalled, lost = closing[keep], stalled[keep], lost[keep]
                cells = cells[keep]
                cols = _cols(cells)
                h, v = h[: len(cols), keep], v[: len(cols), keep]
        else:
            closed = ~(np.isinf(lo) | np.isinf(hi))
            _settle(lam, width, status, live[closed], lo[closed], hi[closed], tol)
    back = np.empty(lanes, dtype=int)
    back[order] = np.arange(lanes)
    return lam[back], width[back], status[back]


def _settle(lam, width, status, at, lo, hi, tol):
    # the bracket midpoint and width of closed lanes, OK where it is narrow enough
    mid = 0.5 * (lo + hi)
    lam[at], width[at] = mid, hi - lo
    status[at] = np.where(hi - lo <= tol + 1e-14 * np.abs(mid), STATUS_OK, STATUS_TOL)

"""The numpy eigenfunction sampler against its scalar predecessor, bit for bit.

``_scalar_sample`` is the sampler as it was before it evaluated each cell's
slice in numpy: one ``math`` call per sample and a ``bisect_left`` per cell.
It is kept here, verbatim but for its name, as the reference the array
version must replay: the same ``ys.tolist()``, the same residual, and on
failure the same error type and message.
"""

import math
import random
from bisect import bisect_left

import numpy as np
import pytest

from robinsl import DeltaAtom, Potential, RobinBC, Segment
from robinsl._kernels import propagate_step
from robinsl.eigensolver import (
    _NONFINITE,
    _sample_eigenfunction,
    _solve_arrays,
    compile_arrays,
)
from robinsl.errors import NonFiniteState, RobinSLError


def _scalar_sample(edges, vals, atomw, k0sq, k1sq, lam, xs):
    xl = xs.tolist()
    raw, lns = [], []
    y, yp, ln = 1.0, k0sq, 0.0
    j, last = 0, len(vals) - 1
    for i in range(last + 1):
        if i > 0 and atomw[i] != 0.0:
            yp += atomw[i] * y
        left, w = edges[i], lam - vals[i]
        # cell i holds edges[i] <= x < edges[i + 1]; the last one also x = 1
        end = len(xl) if i == last else bisect_left(xl, edges[i + 1], j)
        ts = [x - left for x in xl[j:end]]
        if w > 0.0:
            s = math.sqrt(w)
            raw += [y * math.cos(s * t) + yp * math.sin(s * t) / s for t in ts]
        elif w == 0.0:
            raw += [y + yp * t for t in ts]
        else:
            s = math.sqrt(-w)
            if s * ts[-1] > 690.0:
                raise NonFiniteState("eigenfunction sampling overflowed")
            raw += [y * math.cosh(s * t) + yp * math.sinh(s * t) / s for t in ts]
        lns += [ln] * (end - j)
        j = end
        y, yp, _, shift = propagate_step(y, yp, w, edges[i + 1] - left)
        sc = max(abs(y), abs(yp))
        if not (sc > 0.0 and math.isfinite(sc)):
            raise NonFiniteState(_NONFINITE)
        y, yp = y / sc, yp / sc
        ln = ln + shift + math.log(sc)

    lns = np.array(lns)
    raw = np.array(raw) * np.exp(lns - lns.max())
    top = raw.max()
    if not (top > 0.0 and np.isfinite(top)):
        raise NonFiniteState("eigenfunction sampling overflowed")
    raw /= top
    if raw.min() <= 0.0:
        raise NonFiniteState("sampled eigenfunction is not strictly positive")
    return raw, yp + k1sq * y


def _outcome(sampler, arrays, lam, xs):
    """(ys as a list, residual), or (error type, message)."""
    try:
        ys, res = sampler(*arrays, lam, xs)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return type(exc), str(exc)
    return ys.tolist(), res


def _replays(q, bc, lam, grid_points):
    """The outcome of both samplers at lam, asserted equal; returns it."""
    edges, vals, atomw, k0, k1 = arrays = compile_arrays(q, bc)
    xs = np.union1d(np.linspace(0.0, 1.0, grid_points), edges)
    want = _outcome(_scalar_sample, arrays, lam, xs)
    got = _outcome(_sample_eigenfunction, arrays, lam, xs)
    assert got == want, (q, bc, lam)
    return got


def _random_case(seed):
    """Segments of both signs up to |v| = 1e3 and 0-3 atoms at random Robin coefficients."""
    rng = random.Random(f"sampler-replay:{seed}")
    cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(2 * rng.randint(0, 4)))
    segs = tuple(
        Segment(cuts[2 * j], cuts[2 * j + 1], rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0))
        for j in range(len(cuts) // 2)
        if cuts[2 * j + 1] - cuts[2 * j] > 1e-6
    )
    atoms = tuple(DeltaAtom(rng.uniform(0.01, 0.99), rng.uniform(-20.0, 20.0)) for _ in range(rng.randint(0, 3)))
    k0 = rng.uniform(0.0, 2.0)
    return Potential(segments=segs, atoms=atoms), RobinBC(k0, k0 + rng.uniform(0.0, 2.0)), rng


@pytest.mark.parametrize("grid_points", [1001, 2001])
def test_random_potentials_replay(grid_points):
    """256 potentials per grid, each sampled at its lambda1, near it, and at one cell's value."""
    kinds = {"ok": 0, "error": 0}
    for seed in range(256):
        q, bc, rng = _random_case(seed)
        edges, vals, atomw, k0, k1 = compile_arrays(q, bc)
        try:
            lam1 = _solve_arrays(edges, vals, atomw, k0, k1, 1e-10)[0]
        except RobinSLError:
            lam1 = rng.uniform(-50.0, 50.0)
        # lambda1 itself, a trial value far enough off to change sign or blow
        # up, and a cell's own value, where that cell takes the w == 0 formula
        cell = rng.randrange(len(vals))
        for lam in (lam1, lam1 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 2.5), vals[cell]):
            got = _replays(q, bc, lam, grid_points)
            kinds["error" if isinstance(got[0], type) else "ok"] += 1
    # both outcomes are exercised, not just one
    assert kinds["ok"] > 256 and kinds["error"] > 20, kinds


@pytest.mark.parametrize("grid_points", [1001, 2001])
def test_linear_cells_replay(grid_points):
    """lambda set to cell values: the w == 0 formula on interior and end cells."""
    q = Potential(
        segments=(Segment(0.0, 0.3, 2.0), Segment(0.3, 0.55, -1.0), Segment(0.7, 1.0, 0.5)),
        atoms=(DeltaAtom(0.62, -1.5),),
    )
    bc = RobinBC(0.25, 0.5)
    outcomes = [_replays(q, bc, lam, grid_points) for lam in (2.0, -1.0, 0.0, 0.5)]
    # the w == 0 cell sits inside successful samples, not only failed ones
    assert any(not isinstance(o[0], type) for o in outcomes), outcomes


@pytest.mark.parametrize("grid_points", [1001, 2001])
@pytest.mark.parametrize("factor, raises", [(1.0 - 1e-12, False), (1.0 + 1e-12, True)])
def test_overflow_guard_replay(grid_points, factor, raises):
    """A hyperbolic end cell whose last s*t sits just under and just over 690."""
    q = Potential(segments=(Segment(0.5, 1.0, 5.0),))
    bc = RobinBC(0.25, 0.5)
    # on [0.5, 1] the last sample has t = 0.5, so s*t = 690*factor at
    # lam = 5 - (1380*factor)^2; on [0, 0.5) it stays below 690
    lam = 5.0 - (1380.0 * factor) ** 2
    got = _replays(q, bc, lam, grid_points)
    assert (got == (NonFiniteState, "eigenfunction sampling overflowed")) == raises, got[:1]


@pytest.mark.parametrize("factor, raises", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
def test_interior_overflow_guard_replay(factor, raises):
    """The guard on an interior cell, whose last sample falls one grid step short of its edge."""
    # at lam = 0 only the barrier on [0.2, 0.4) is hyperbolic; its last
    # sample has t = 0.3995 - 0.2
    v = (690.0 / (0.3995 - 0.2)) ** 2 * factor
    q = Potential(segments=(Segment(0.2, 0.4, v),))
    got = _replays(q, RobinBC(0.25, 0.5), 0.0, 2001)
    assert (got == (NonFiniteState, "eigenfunction sampling overflowed")) == raises, got[:1]

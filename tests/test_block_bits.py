"""The bit-exactness that check_bounds' batch draw, its lockstep solve and the eigenfunction sampler rely on.

check_bounds draws, tables and starts its samples a batch at a time in numpy,
and its reports must keep the bytes of the scalar splitmix64 stream and
loops.  That holds only while numpy's uint64 arithmetic wraps as the Python
ints are masked, and while its sin, cos and sqrt round as math's do.  The
scalar stream is kept here, one Python-int step at a time, as the reference
for ``_rng``'s arrays.  check_bounds then solves its samples in lockstep
(``_lockstep.lambda1_lanes``), which gives every lane the bits of
``lambda1_kernel`` only while numpy's sqrt of |lam - q| and its cos and sin
of s*h round as math's do at every scale those reach, while its sign and
copysign decide a cell's zero and its hyperbolic sign as propagate_step's
comparisons do, and only while it leaves cosh, sinh, exp, log, atan2, max
and min to math and Python (numpy's differ in the last bit, or in their
NaN rules).  The eigenfunction
sampler (``eigensolver._sample_eigenfunction``) evaluates each trigonometric
cell's slice with numpy's sin and cos, on a view of s*t that reaches far
beyond one period, and ``eigen`` prints those samples; it keeps the bytes of
its one-``math``-call-per-sample predecessor only while they round as math's
do on such arguments too.  These tests fail, naming the function, on a
platform where they do not.
"""
import ast
import io
import math
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import robinsl._lockstep
from robinsl._rng import derive_seeds, stream, units
from robinsl.cli import main

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _scalar_stream(seed, n):
    # the first n outputs of splitmix64 from seed
    s, out = seed & MASK, []
    for _ in range(n):
        s = (s + GAMMA) & MASK
        out.append(_mix(s))
    return out


def _derive_seed(seed, tag, index):
    base = _mix((seed & MASK) ^ _mix(((tag + 1) * GAMMA) & MASK))
    return _mix((base + index) & MASK)


SEEDS = [0, 1, 2**64 - 1] + [_derive_seed(s, t, i) for s in (0, 20260809) for t in (0, 1) for i in (0, 31, 32)]
# the most numbers one check_bounds sample takes at --pieces-max 64, plus one
N_OUT = 3 * 64 + 2


def test_array_stream_is_the_scalar_stream():
    seeds = np.array(SEEDS, dtype=np.uint64)
    for skip in (0, 1):
        raw = stream(seeds, skip, N_OUT - skip).tolist()
        urows = units(stream(seeds, skip, N_OUT - skip)).tolist()
        assert len(raw) == len(urows) == len(SEEDS)
        for seed, row, urow in zip(SEEDS, raw, urows):
            want = _scalar_stream(seed, N_OUT)[skip:]
            assert row == want, (seed, skip)
            assert urow == [((z >> 11) + 1) * 2.0**-53 for z in want], (seed, skip)
    # a Python int seed is one stream, wrapped to 64 bits
    for seed in (0, 2**64 - 1, -1, -(2**70) + 5, 2**64 + 3, 2**200):
        assert stream(seed, 5, 20).tolist() == [_scalar_stream(seed, 25)[5:]], seed


def test_array_sub_seeds_are_derive_seed():
    for seed in (0, 1, 2**64 - 1, 20260809, -3):
        for tag in (0, 1):
            got = derive_seeds(seed, tag, 30, 70).tolist()
            assert got == [_derive_seed(seed, tag, i) for i in range(30, 70)], (seed, tag)


def test_stream_leaves_the_callers_seeds():
    # the mix runs in place, on arrays that stream and derive_seeds make
    # themselves: a seed array passed in, contiguous or a strided view, is
    # left as it was, and the same call gives the same bits again
    seeds = np.array(SEEDS * 2, dtype=np.uint64)
    kept = seeds.copy()
    for view in (seeds, seeds[::2]):
        first = stream(view, 3, 40)
        assert stream(view, 3, 40).tobytes() == first.tobytes()
        units(first)
    assert seeds.tobytes() == kept.tobytes()
    assert derive_seeds(7, 1, 0, 50).tobytes() == derive_seeds(7, 1, 0, 50).tobytes()


@pytest.mark.parametrize("name", ["sin", "cos", "sqrt"])
def test_numpy_rounds_as_math(name):
    # [0, 40] for the block path's first-order starts, [0, 1e5] for the
    # sampler's s*t; a strided view as well as a contiguous array
    for top in (40.0, 1e5):
        x = np.random.default_rng(20260809).uniform(0.0, top, 10**5)
        for layout, args in (("contiguous", x), ("strided", np.repeat(x, 2)[::2])):
            got = getattr(np, name)(args).tolist()
            want = [getattr(math, name)(t) for t in x.tolist()]
            bad = [t for t, a, b in zip(x.tolist(), got, want) if a != b]
            assert not bad, (
                f"np.{name} differs from math.{name} on {len(bad)} of {len(x)} {layout} arguments "
                f"in [0, {top:g}], first {bad[0]!r}"
            )


@pytest.mark.parametrize(
    "name, decades", [("sqrt", (-300.0, 300.0)), ("sin", (-12.0, 15.0)), ("cos", (-12.0, 15.0))], ids=["sqrt", "sin", "cos"]
)
def test_numpy_rounds_as_math_at_every_scale(name, decades):
    # the lockstep's sqrt(|lam - q|) and its cos and sin of s*h, log-uniform
    # over the decades a shot can reach: a cell narrower than MERGE_TOL under
    # a lam near its value, up to a tall barrier or a deep well
    x = 10.0 ** np.random.default_rng(20260810).uniform(*decades, 10**5)
    got = getattr(np, name)(x).tolist()
    want = [getattr(math, name)(t) for t in x.tolist()]
    bad = [t for t, a, b in zip(x.tolist(), got, want) if a != b]
    assert not bad, f"np.{name} differs from math.{name} on {len(bad)} of {len(x)} arguments, first {bad[0]!r}"


def test_lockstep_leaves_the_rest_to_math():
    # numpy's versions of these differ from math's in the last bit, or
    # (maximum, minimum, fmax, fmin) from Python's max and min where a NaN
    # is compared; the lockstep maps math's over the lanes or uses where
    banned = {"sinh", "cosh", "exp", "log", "arctan2", "arctanh", "maximum", "minimum", "fmax", "fmin"}
    tree = ast.parse(open(robinsl._lockstep.__file__).read())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "numpy" for a in node.names}
    assert not (used | imported) & banned, sorted((used | imported) & banned)
    assert {"sqrt", "cos", "sin"} <= used


_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.5, 1e308, -1e308]


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_numpy_sign_and_copysign_decide_as_propagate_step(layout):
    # the lockstep counts a sign change where y1*sign(y) < 0, which
    # propagate_step tests as y < 0 < y1 or y1 < 0 < y, and takes
    # copysign(sqrt(|w|), w) as the s of a trigonometric cell (w > 0) and
    # the -s of a hyperbolic one (w < 0): at +-0, NaN, +-inf and subnormals,
    # as arrays long enough for numpy's vector loops
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL]
    y, y1 = (np.array(col) for col in zip(*pairs))
    if layout == "strided":
        y, y1 = np.repeat(y, 2)[::2], np.repeat(y1, 2)[::2]
    with np.errstate(all="ignore"):
        crossed = (y1 * np.sign(y) < 0.0).tolist()
        s = np.sqrt(np.abs(y1))
        t = np.copysign(s, y1)
    for (a, b), cross, si, ti in zip(pairs, crossed, s.tolist(), t.tolist()):
        assert cross == (a < 0.0 < b or b < 0.0 < a), (a, b)
        # b as a cell's w
        if b > 0.0:
            assert struct.pack("<d", ti) == struct.pack("<d", si), b
        elif b < 0.0:
            assert struct.pack("<d", ti) == struct.pack("<d", -si), b


def test_verify_warns_nothing():
    # numpy warns on uint64 scalar overflow; the block stream must keep to
    # arrays, and the verify command's stderr stays empty
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["verify", "--k0sq", "0.25", "--k1sq", "0.5", "--n", "40", "--pieces-max", "64", "--seed", "7"])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert err.getvalue() == ""

"""The bit-exactness that check_bounds' block path and the eigenfunction sampler rely on.

check_bounds draws, tables and starts its samples a block at a time in numpy,
and its reports must keep the bytes of the scalar stream and loops.  That
holds only while numpy's uint64 arithmetic wraps as the Python ints are
masked, and while its sin, cos and sqrt round as math's do.  The
eigenfunction sampler (``eigensolver._sample_eigenfunction``) evaluates each
trigonometric cell's slice with numpy's sin and cos, on a view of s*t that
reaches far beyond one period, and ``eigen`` prints those samples; it keeps
the bytes of its one-``math``-call-per-sample predecessor only while they
round as math's do on such arguments too.  These tests fail, naming the
function, on a platform where they do not.
"""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from robinsl._rng import _GAMMA, SplitMix64, _mix, derive_seed, derive_seeds, stream_units
from robinsl.cli import main

SEEDS = [0, 1, 2**64 - 1] + [derive_seed(s, t, i) for s in (0, 20260809) for t in (0, 1) for i in (0, 31, 32)]
# the most numbers one check_bounds sample takes at --pieces-max 64, plus one
N_OUT = 3 * 64 + 2


def test_array_stream_is_the_scalar_stream():
    seeds = np.array(SEEDS, dtype=np.uint64)
    k = np.arange(1, N_OUT + 1, dtype=np.uint64)
    raw = _mix(seeds[:, None] + k * np.uint64(_GAMMA)).tolist()
    for seed, row in zip(SEEDS, raw):
        rng = SplitMix64(seed)
        assert row == [rng.next_u64() for _ in range(N_OUT)], seed
    for skip in (0, 1):
        rows = stream_units(seeds, skip, N_OUT - skip)
        assert len(rows) == len(SEEDS)
        for seed, row in zip(SEEDS, rows):
            rng = SplitMix64(seed)
            for _ in range(skip):
                rng.next_u64()
            assert row == rng.units(N_OUT - skip), (seed, skip)


def test_array_sub_seeds_are_derive_seed():
    for seed in (0, 1, 2**64 - 1, 20260809, -3):
        for tag in (0, 1):
            got = derive_seeds(seed, tag, 30, 70).tolist()
            assert got == [derive_seed(seed, tag, i) for i in range(30, 70)], (seed, tag)


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

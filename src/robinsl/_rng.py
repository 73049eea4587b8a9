"""Deterministic splitmix64 stream for reproducible sampling.

The generator is fixed (not platform RNG) so that reports citing a seed can
be regenerated bit-for-bit anywhere.  The same arithmetic runs on numpy
uint64 arrays, whose products wrap modulo 2**64, for many streams at once.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_UNIT = 2.0**-53


def _mix(z):
    # a Python int or a uint64 array; never in place, so an array argument
    # is left as it was
    z = z & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _tag_base(seed, tag):
    return _mix((seed & _MASK) ^ _mix(((tag + 1) * _GAMMA) & _MASK))


def derive_seed(seed: int, tag: int, index: int) -> int:
    """Stable per-(tag, index) sub-seed of a master seed."""
    return _mix((_tag_base(seed, tag) + index) & _MASK)


def derive_seeds(seed: int, tag: int, start: int, stop: int) -> np.ndarray:
    """derive_seed(seed, tag, i) for i in range(start, stop), as a uint64 array."""
    return _mix(np.uint64(_tag_base(seed, tag)) + np.arange(start, stop, dtype=np.uint64))


def stream_units(seeds: np.ndarray, skip: int, count: int) -> list:
    """Units of many streams in one pass: row j holds the count numbers that
    SplitMix64(seeds[j]).units(count) gives after skip calls of next_u64.

    Output k of a stream is the mix of seed + k*GAMMA.
    """
    k = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    z = _mix(seeds[:, None] + k * np.uint64(_GAMMA))
    return (((z >> 11) + 1) * _UNIT).tolist()


class SplitMix64:
    """Scalar splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def units(self, n: int) -> list:
        """The next n uniform doubles in (0, 1], ((next_u64() >> 11) + 1) * 2**-53 each.

        The step and the mix are written out in the loop, one pass for all
        the numbers of a sample: 25 take about 15 us, against about 18 us
        with two calls per number.
        """
        s = self._state
        out = []
        for _ in range(n):
            s = (s + _GAMMA) & _MASK
            z = ((s ^ (s >> 30)) * _M1) & _MASK
            z = ((z ^ (z >> 27)) * _M2) & _MASK
            out.append((((z ^ (z >> 31)) >> 11) + 1) * _UNIT)
        self._state = s
        return out

"""Deterministic splitmix64 streams for reproducible sampling.

The generator is fixed (not platform RNG) so that reports citing a seed can
be regenerated bit-for-bit anywhere.  Streams are drawn on numpy uint64
arrays, whose products wrap modulo 2**64, many streams at once; a Python
int seed is wrapped to 64 bits and drawn as one stream.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_UNIT = 2.0**-53


def _mix(z):
    # a fresh uint64 array, mixed in place (products wrap modulo 2**64)
    # with one more array for the shifts
    s = z >> 30
    z ^= s
    z *= _M1
    np.right_shift(z, 27, out=s)
    z ^= s
    z *= _M2
    np.right_shift(z, 31, out=s)
    z ^= s
    return z


def _as_seeds(seeds):
    # a Python int is one stream, its seed wrapped to 64 bits
    return seeds if isinstance(seeds, np.ndarray) else np.array([seeds & _MASK], dtype=np.uint64)


def derive_seeds(seed: int, tag: int, start: int, stop: int) -> np.ndarray:
    """The sub-seeds of indices start..stop-1 of class tag under seed, as a uint64 array."""
    # every array mixed here is made here: the caller's seed stays as it was
    base = _mix(_as_seeds(seed) ^ _mix(_as_seeds(tag + 1) * _GAMMA))
    return _mix(base + np.arange(start, stop, dtype=np.uint64))


def stream(seeds, skip: int, count: int) -> np.ndarray:
    """Outputs skip+1 .. skip+count of the streams of seeds, one row per seed.

    seeds is a uint64 array or a Python int (one stream, wrapped to 64
    bits).  Output k of a stream is the mix of seed + k*GAMMA.
    """
    k = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    return _mix(_as_seeds(seeds)[:, None] + k * _GAMMA)


def units(z: np.ndarray) -> np.ndarray:
    """Outputs z of :func:`stream` as uniform doubles in (0, 1], ((z >> 11) + 1) * 2**-53 each."""
    return ((z >> 11) + 1) * _UNIT

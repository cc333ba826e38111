"""Portable, seeded random number generation.

The generator is counter-based splitmix64: output ``k`` of a stream with
seed ``s`` is ``mix64(s + (k+1) * GOLDEN)`` where ``mix64`` is the standard
splitmix64 finalizer (Steele, Lea & Flood, 2014) and GOLDEN is the 64-bit
golden-ratio constant.  Uniform doubles in [0, 1) take the top 53 bits.
Gaussian variates use the Marsaglia polar method: uniform pairs are drawn
in counter order, a pair (u1, u2) is mapped to (v1, v2) = (2u1-1, 2u2-1)
and accepted iff 0 < s = v1^2 + v2^2 < 1; each accepted pair emits
v1*sqrt(-2 ln s / s) then v2*sqrt(-2 ln s / s).  A trailing unused variate
from the last accepted pair is discarded.

All of this is fixed so that a seed reproduces the same bytes on any
IEEE-754 double platform (best effort across floating-point environments:
the integer stream is exact, log/sqrt follow the platform libm).
"""

import operator

import numpy as np

from .errors import check_count

_GOLDEN = 0x9E3779B97F4A7C15
_TAG_MULT = 0xD2B74407B1CE6E93


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def mix64(z: int) -> int:
    """splitmix64 finalizer on an integer taken modulo 2**64."""
    # An array, not a numpy scalar: scalar uint64 products warn on overflow.
    z = np.array([z & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return int(_mix64_array(z)[0])


def _seed(seed):
    """``seed`` as an int, if it is an integer and not a bool."""
    return operator.index(check_count("seed", seed, least=None))


def substream_seed(master_seed: int, tag: int) -> int:
    """Derive an independent stream seed for a named purpose tag."""
    return mix64(_seed(master_seed) ^ (tag * _TAG_MULT))


class Stream:
    """A single splitmix64 stream with an advancing counter."""

    def __init__(self, seed: int):
        self.seed = np.uint64(_seed(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` doubles, uniform on [0, 1)."""
        ks = np.arange(self._counter + 1, self._counter + count + 1,
                       dtype=np.uint64)
        self._counter += count
        bits = _mix64_array(self.seed + ks * np.uint64(_GOLDEN))
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def gaussians(self, count: int) -> np.ndarray:
        """Next ``count`` standard normal variates (polar method)."""
        out = np.empty(count)
        filled = 0
        while filled < count:
            npairs = max(1024, (count - filled) | 1)
            u = self.uniforms(2 * npairs)
            v1 = 2.0 * u[0::2] - 1.0
            v2 = 2.0 * u[1::2] - 1.0
            s = v1 * v1 + v2 * v2
            keep = (s > 0.0) & (s < 1.0)
            v1, v2, s = v1[keep], v2[keep], s[keep]
            f = np.sqrt(-2.0 * np.log(s) / s)
            z = np.empty(2 * s.size)
            z[0::2] = v1 * f
            z[1::2] = v2 * f
            take = min(z.size, count - filled)
            out[filled:filled + take] = z[:take]
            filled += take
        return out

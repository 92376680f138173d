"""Deterministic counter-based random streams.

The generator is the splitmix64 finalizer applied to an affine counter
sequence, so any number of values can be produced either one at a time or
as a vectorized block with identical results:

    out[i] = mix64(key + GOLDEN * (counter + i + 1))

where mix64 is the shift-xor-multiply finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

All arithmetic is modulo 2**64. Reproducible across platforms and
implementations; no dependence on numpy's own RNG state.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _M1
    z = (z ^ (z >> _U64(27))) * _M2
    return z ^ (z >> _U64(31))


class Rng:
    """Seeded stream of u64 / floats / ints with explicit substream forking."""

    def __init__(self, seed: int):
        self._key = _mix64(np.asarray([_U64(seed & 0xFFFFFFFFFFFFFFFF)]))[0]
        self._counter = 0

    def child(self, tag: int) -> "Rng":
        """Independent substream; same (seed, tag) always gives the same stream."""
        r = Rng(0)
        r._key = _mix64(np.asarray([self._key ^ _mix64(np.asarray([_U64(tag & 0xFFFFFFFFFFFFFFFF)]))[0]]))[0]
        r._counter = 0
        return r

    def u64(self, n: int | None = None):
        count = 1 if n is None else int(n)
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        out = _mix64(self._key + _GOLDEN * idx)
        return int(out[0]) if n is None else out

    def uniform(self, n: int | None = None):
        """Floats in [0, 1) with 53-bit resolution."""
        bits = self.u64(n if n is not None else 1)
        vals = (bits >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        return float(vals[0]) if n is None else vals

    def normal(self, n: int | None = None):
        """Standard normals via Box-Muller (pairs drawn from the stream)."""
        count = 1 if n is None else int(n)
        m = (count + 1) // 2
        u1 = np.maximum(self.uniform(m), 2.0 ** -53)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        vals = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:count]
        return float(vals[0]) if n is None else vals

    def integers(self, lo: int, hi: int, n: int | None = None):
        """Uniform ints in [lo, hi); modulo reduction (bias < 2**-40 for desk ranges)."""
        span = hi - lo
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        if n is None:
            return lo + self.u64() % span
        return lo + (self.u64(n) % _U64(span)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.integers(0, i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), order random (partial Fisher-Yates)."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        idx = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = self.integers(i, n)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()

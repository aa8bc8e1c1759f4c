"""Zipfian key generator (YCSB's scrambled-zipfian access pattern).

Implements the Gray et al. rejection-free zipfian generator used by the
original YCSB client, plus the "scrambled" variant that hashes ranks so
popular keys are spread across the key space.
"""

from __future__ import annotations

import random

from ..errors import WorkloadError

__all__ = ["ZipfianGenerator", "ScrambledZipfianGenerator", "UniformGenerator"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class UniformGenerator:
    """Uniform keys in [0, n)."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise WorkloadError("n must be >= 1", n=n)
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)


class ZipfianGenerator:
    """Zipfian ranks in [0, n) with parameter ``theta`` (default 0.99)."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n < 1:
            raise WorkloadError("n must be >= 1", n=n)
        if not 0 < theta < 1:
            raise WorkloadError("theta must be in (0, 1)", theta=theta)
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1 - (2.0 / n) ** (1 - theta))
                     / (1 - self._zeta2 / self._zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity spread over the key space via FNV hashing."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.n

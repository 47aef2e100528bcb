"""Zipfian key distribution, as used by YCSB (section 6.5.2).

Implements the Gray et al. rejection-free algorithm, the same one the
original YCSB ``ZipfianGenerator`` uses, so key popularity matches the
paper's workloads.
"""

from __future__ import annotations

import random
from typing import Optional


class ZipfianGenerator:
    """Draws integers in [0, n) with Zipfian popularity skew."""

    def __init__(self, n: int, theta: float = 0.99,
                 seed: Optional[int] = None):
        if n <= 0:
            raise ValueError("need at least one item")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        if n <= 2:
            # with n <= 2 the two fast-path branches of next() cover the
            # whole [0, zetan) range, so eta is never used (and its
            # denominator would be zero for n == 2)
            self._eta = 0.0
        else:
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

    def __iter__(self):
        while True:
            yield self.next()

"""Measurement infrastructure for simulation runs.

Every experiment collects its numbers through these primitives so the
benchmark harness can print uniform tables:

* :class:`Counter` — monotonic event counts (messages sent, switches).
* :class:`Histogram` — value samples and their summary statistics (the
  metrics registry's histograms too).
* :class:`StatRegistry` — the counters of one simulator
  (``sim.stats``), one per fact.
* :func:`percentile` — nearest-rank quantile of a sorted sample, the
  only quantile definition (figure tables' p50/p99/p99.9 and
  :meth:`Histogram.summary`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample, q in [0, 1]: the
    sample at rank ``round(q * (n - 1))``.  NaN when the sample is
    empty (renderers show an em-dash; no latency is claimed)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} out of range")
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return float(sorted_vals[idx])


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} decremented by {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Collects scalar samples; reports mean/stdev/min/max and, through
    :func:`percentile`, p50/p99 (:meth:`summary`)."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def record(self, sample: float) -> None:
        self.samples.append(sample)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean; NaN when no samples were recorded (renderers
        show it as an em-dash instead of crashing a whole report).
        Clamped to [min, max]: float summation can land one ulp outside
        the sample range (e.g. three identical samples)."""
        if not self.samples:
            return float("nan")
        raw = sum(self.samples) / len(self.samples)
        return min(max(raw, self.min), self.max)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1))

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else float("nan")

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else float("nan")

    def summary(self) -> Dict[str, float]:
        """count/min/max/mean/p50/p99, or ``{"count": 0}`` when empty."""
        s = sorted(self.samples)
        if not s:
            return {"count": 0}
        return {"count": len(s), "min": float(s[0]), "max": float(s[-1]),
                "mean": self.mean, "p50": percentile(s, 0.50),
                "p99": percentile(s, 0.99)}

    def __repr__(self) -> str:
        if not self.samples:
            return f"Histogram({self.name}, empty)"
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.1f})"


class StatRegistry:
    """A flat namespace of named counters."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def counter_value(self, name: str) -> int:
        return self._counters[name].value if name in self._counters else 0

    def items(self) -> List[Tuple[str, int]]:
        """``(name, value)`` per counter, in creation order."""
        return [(name, c.value) for name, c in self._counters.items()]

    def snapshot(self) -> Dict[str, int]:
        """A flat ``count/<name>`` dict of counter values, for reports."""
        return {f"count/{name}": value for name, value in self.items()}

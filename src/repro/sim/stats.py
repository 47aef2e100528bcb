"""Measurement infrastructure for simulation runs.

Every experiment collects its numbers through these primitives so the
benchmark harness can print uniform tables:

* :class:`Counter` — monotonic event counts (messages sent, switches).
* :class:`Histogram` — latency samples with quantiles.
* :class:`TimeWeighted` — time-integrated values (utilization, queue depth).
* :class:`StatRegistry` — a namespace of the above, attached to a system.
* :func:`percentile` — nearest-rank quantile of a sorted sample (the
  figure tables' p50/p99/p99.9).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sample, q in [0, 1]: the
    sample at rank ``round(q * (n - 1))``.  NaN when the sample is
    empty (renderers show an em-dash; no latency is claimed)."""
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
    """Collects scalar samples; reports mean/stdev/quantiles."""

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

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of range")
        if not self.samples:
            return float("nan")
        xs = sorted(self.samples)
        pos = q * (len(xs) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return xs[lo]
        frac = pos - lo
        # one-sided form: exact when both endpoints are equal (the
        # symmetric lerp can round past them and break monotonicity)
        return xs[lo] + (xs[hi] - xs[lo]) * frac

    def __repr__(self) -> str:
        if not self.samples:
            return f"Histogram({self.name}, empty)"
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.1f})"


class TimeWeighted:
    """Integrates a piecewise-constant value over simulated time."""

    def __init__(self, name: str, now: int = 0, initial: float = 0.0):
        self.name = name
        self._value = initial
        self._last_change = now
        self._area = 0.0
        self._start = now

    def set(self, value: float, now: int) -> None:
        self._area += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now

    def adjust(self, delta: float, now: int) -> None:
        self.set(self._value + delta, now)

    @property
    def current(self) -> float:
        return self._value

    def mean(self, now: int) -> float:
        """Time-weighted mean from creation until ``now``."""
        span = now - self._start
        if span <= 0:
            return self._value
        return (self._area + self._value * (now - self._last_change)) / span


class StatRegistry:
    """A flat namespace of named statistics."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, TimeWeighted] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def gauge(self, name: str, now: int = 0) -> TimeWeighted:
        if name not in self._gauges:
            self._gauges[name] = TimeWeighted(name, now)
        return self._gauges[name]

    def counter_value(self, name: str) -> int:
        return self._counters[name].value if name in self._counters else 0

    def histogram_or_none(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, float]:
        """A flat dict of counter values and histogram means, for reports."""
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[f"count/{name}"] = c.value
        for name, h in self._histograms.items():
            if h.samples:
                out[f"mean/{name}"] = h.mean
                out[f"n/{name}"] = h.count
        return out

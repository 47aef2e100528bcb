"""The metrics registry: counters, gauges and histograms on sim time.

Design constraints, in order:

1. **Zero cost when off.**  Exactly like tracing, a disabled registry
   costs one attribute load + ``is not None`` per instrumented site;
   the registry is only consulted through ``sim.metrics``.
2. **No observer effect when on.**  Instrumentation only *reads*
   simulation state — it never advances time, touches the RNG or
   allocates ids the canonical trace serializer sees — so enabling
   metrics leaves traces byte-identical (asserted by the zero-cost
   test suite).
3. **Bounded memory.**  Time series are throttled: a gauge records a
   point only when the value changed or ``interval_ps`` of simulated
   time passed since the last point.

Name convention: ``tile<N>/<component>/<metric>`` for per-tile series,
``ctrl/<metric>`` for the controller, ``sim/<metric>`` for the engine.
Everything is JSON-safe via :meth:`MetricsRegistry.as_dict`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.stats import Histogram

__all__ = ["Gauge", "MetricsRegistry", "capture_metrics"]

# default simulated-time throttle between gauge points (10 us)
DEFAULT_GAUGE_INTERVAL_PS = 10_000_000
# default simulated-time throttle between event-queue depth samples
DEFAULT_EVQ_INTERVAL_PS = 10_000_000


class Gauge:
    """A throttled (timestamp, value) series on simulated time."""

    __slots__ = ("name", "series", "interval_ps", "_next_ts", "_last")

    def __init__(self, name: str,
                 interval_ps: int = DEFAULT_GAUGE_INTERVAL_PS):
        self.name = name
        self.series: List[Tuple[int, float]] = []
        self.interval_ps = interval_ps
        self._next_ts = -1
        self._last: Optional[float] = None

    def sample(self, now: int, value) -> None:
        """Record ``(now, value)`` unless it is redundant.

        A point is kept when the value changed since the last point or
        the throttle interval elapsed; repeated identical values inside
        the interval collapse to one point."""
        if value != self._last or now >= self._next_ts:
            self.series.append((now, value))
            self._last = value
            self._next_ts = now + self.interval_ps

    @property
    def last(self):
        return self._last

    def stats(self) -> Dict[str, float]:
        values = [v for _, v in self.series]
        if not values:
            return {"n": 0}
        return {"n": len(values), "min": min(values), "max": max(values),
                "mean": sum(values) / len(values), "last": values[-1]}


class MetricsRegistry:
    """Counters, throttled gauges, cumulative time series, histograms.

    One registry usually spans a whole workload (all simulators built
    while it is installed share it — multi-platform points aggregate,
    which is what the figure-level summaries want).
    """

    def __init__(self, gauge_interval_ps: int = DEFAULT_GAUGE_INTERVAL_PS,
                 evq_interval_ps: int = DEFAULT_EVQ_INTERVAL_PS):
        self.gauge_interval_ps = gauge_interval_ps
        self.evq_interval_ps = evq_interval_ps
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        # engine hot path: per-event-class pop counts + queue depth
        self.event_counts: Dict[str, int] = {}
        self._evq_series: List[Tuple[int, int]] = []
        self._evq_next = -1

    # -- write paths (instrumentation sites) ----------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name, self.gauge_interval_ps)
        return g

    def sample(self, name: str, now: int, value) -> None:
        self.gauge(name).sample(now, value)

    def series_inc(self, name: str, now: int, n: int = 1) -> None:
        """Counter + throttled series of its cumulative value — the
        'rate' primitive (consumers difference the series)."""
        total = self.counters.get(name, 0) + n
        self.counters[name] = total
        self.gauge(name).sample(now, total)

    def observe(self, name: str, value) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        h.record(value)

    def on_step(self, sim, event) -> None:
        """Engine hook: called once per processed event (hot path)."""
        cls = type(event).__name__
        self.event_counts[cls] = self.event_counts.get(cls, 0) + 1
        now = sim.now
        if now >= self._evq_next:
            self._evq_series.append((now, len(sim._eq)))
            self._evq_next = now + self.evq_interval_ps

    # -- read paths ------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self.counters.get(name, 0)

    def series(self, name: str) -> List[Tuple[int, float]]:
        if name == "sim/evq_depth":
            return list(self._evq_series)
        g = self.gauges.get(name)
        return list(g.series) if g is not None else []

    def series_names(self) -> List[str]:
        names = sorted(self.gauges)
        if self._evq_series:
            names.append("sim/evq_depth")
        return names

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (also the pickle-friendly pool format)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "event_counts": dict(sorted(self.event_counts.items())),
            "gauges": {name: [[ts, v] for ts, v in g.series]
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
            "evq_depth": [[ts, v] for ts, v in self._evq_series],
        }

    @staticmethod
    def merge_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Aggregate several :meth:`as_dict` snapshots (counter sums;
        series and histograms keep the per-point granularity by prefix
        is the caller's business, so they are dropped here)."""
        counters: Dict[str, int] = {}
        event_counts: Dict[str, int] = {}
        for d in dicts:
            if not d:
                continue
            for k, v in d.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
            for k, v in d.get("event_counts", {}).items():
                event_counts[k] = event_counts.get(k, 0) + v
        return {"counters": counters, "event_counts": event_counts}


@contextmanager
def capture_metrics(registry: Optional[MetricsRegistry] = None):
    """Meter every simulator built inside the block (the analogue of
    :func:`repro.sim.trace.capture`).

    >>> with capture_metrics() as metrics:
    ...     run_fig6(Fig6Params(iterations=10, warmup=2))
    >>> metrics.counter_value("tile0/dtu/sends")
    """
    from repro.sim import engine

    registry = registry if registry is not None else MetricsRegistry()
    engine.set_default_metrics(registry)
    try:
        yield registry
    finally:
        engine.set_default_metrics(None)

"""The metrics registry: gauges and histograms on sim time.

Counts live in the simulator: each fact is counted once, in
``sim.stats`` (:class:`~repro.sim.stats.StatRegistry`), and a registry
reads the counters of the simulators it meters.  The registry keeps
only what a counter cannot hold: throttled gauges (queue depths),
histograms (switch durations, backoff waits) and the engine's
per-class event counts.

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
Each metered simulator keeps its own series: the first one built in a
:func:`capture_metrics` block uses the plain names, the k-th after it
prefixes them with ``sim<k>/``.  Counters and histograms are summed
over the simulators.  Everything is JSON-safe via
:meth:`MetricsRegistry.as_dict`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Tuple

from repro.sim.stats import Histogram

__all__ = ["Gauge", "MetricsRegistry", "capture_metrics"]

#: simulated-time throttle between the points of a series (10 us)
GAUGE_INTERVAL_PS = 10_000_000


class Gauge:
    """A throttled (timestamp, value) series on simulated time."""

    __slots__ = ("name", "series", "interval_ps", "_next_ts", "_last")

    def __init__(self, name: str, interval_ps: int = GAUGE_INTERVAL_PS):
        self.name = name
        self.series: List[Tuple[int, float]] = []
        self.interval_ps = interval_ps
        self._next_ts = -1
        self._last = None

    def sample(self, now: int, value) -> None:
        """Record ``(now, value)`` unless it is redundant.

        A point is kept when the value changed since the last point or
        the throttle interval elapsed; repeated identical values inside
        the interval collapse to one point."""
        if value != self._last or now >= self._next_ts:
            self.series.append((now, value))
            self._last = value
            self._next_ts = now + self.interval_ps


class MetricsRegistry:
    """Gauges, histograms and event counts of the metered simulators,
    and a view of their counters.

    One registry usually spans a whole workload: every simulator built
    while it is installed is metered (:meth:`meter`), multi-platform
    points sum their counters and histograms, and each simulator's
    series stay apart.
    """

    def __init__(self):
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        # engine hot path: per-event-class pop counts
        self.event_counts: Dict[str, int] = {}
        # metered simulator -> the prefix of its series
        self._prefixes: Dict[Any, str] = {}
        self._evq_depth: Dict[Any, Gauge] = {}

    def meter(self, sim) -> None:
        """Meter ``sim``: sum its counters, keep its series apart."""
        k = len(self._prefixes)
        self._prefixes[sim] = f"sim{k}/" if k else ""

    # -- write paths (instrumentation sites) ----------------------------------

    def _gauge(self, sim, name: str) -> Gauge:
        name = self._prefixes[sim] + name
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def sample(self, sim, name: str, value) -> None:
        """Sample ``sim``'s ``name`` series at ``sim.now``."""
        self._gauge(sim, name).sample(sim.now, value)

    def observe(self, name: str, value) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        h.record(value)

    def on_step(self, sim, event) -> None:
        """Engine hook: called once per processed event (hot path).
        Counts the event's class and samples the queue depth once per
        throttle interval."""
        cls = type(event).__name__
        self.event_counts[cls] = self.event_counts.get(cls, 0) + 1
        depth = self._evq_depth.get(sim)
        if depth is None:
            depth = self._evq_depth[sim] = self._gauge(sim, "sim/evq_depth")
        now = sim.now
        if now >= depth._next_ts:
            depth.sample(now, len(sim._eq))

    # -- read paths ------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """The metered simulators' counters, summed by name."""
        total: Dict[str, int] = {}
        for sim in self._prefixes:
            for name, value in sim.stats.items():
                total[name] = total.get(name, 0) + value
        return dict(sorted(total.items()))

    def counter_value(self, name: str) -> int:
        return sum(sim.stats.counter_value(name) for sim in self._prefixes)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (also the pickle-friendly pool format)."""
        return {
            "counters": self.counters,
            "event_counts": dict(sorted(self.event_counts.items())),
            "gauges": {name: [[ts, v] for ts, v in g.series]
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }

    @staticmethod
    def merge_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        """Sum the counters of several :meth:`as_dict` snapshots
        (series and histograms stay per point)."""
        counters: Dict[str, int] = {}
        for d in dicts:
            if not d:
                continue
            for k, v in d.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
        return {"counters": counters}


@contextmanager
def capture_metrics():
    """Meter every simulator built inside the block (the analogue of
    :func:`repro.sim.trace.capture`).

    >>> with capture_metrics() as metrics:
    ...     Runner().run_sweep("fig6", fig6_points(iterations=10, warmup=2))
    >>> metrics.counter_value("dtu/sends")
    """
    from repro.sim import engine

    registry = MetricsRegistry()
    engine.set_default_metrics(registry)
    try:
        yield registry
    finally:
        engine.set_default_metrics(None)

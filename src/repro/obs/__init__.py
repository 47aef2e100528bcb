"""Observability: metrics, span timelines, and simulator self-profiling.

Three independent layers, all **off by default** (every instrumented
site guards on ``sim.metrics is not None`` / ``sim.profiler is not
None``, mirroring the tracer hooks of :mod:`repro.sim.trace`):

* :class:`MetricsRegistry` — throttled time-series gauges and
  histograms sampled on *simulated* time, fed by instrumentation points
  in the engine, the vDTUs, the multiplexers and the controller, plus
  a view of the metered simulators' counters (each fact is counted
  once, in ``sim.stats``);
* :class:`SpanCollector` — per-activity/per-tile interval timelines
  (running / blocked / switching / quarantined) derived from the trace
  stream, exportable as JSON or a Chrome ``trace_event`` file;
* :class:`SelfProfiler` — wall-clock per simulated subsystem and
  events/sec, for finding where the *simulator itself* spends time.

Each attaches one way: every simulator built inside a
:func:`capture_metrics` or :func:`capture_profile` block latches the
block's registry or profiler, as :func:`repro.sim.trace.capture` does
for tracers.  A :class:`SpanCollector` attaches to such a tracer.
"""

from repro.obs.metrics import MetricsRegistry, capture_metrics
from repro.obs.profile import SelfProfiler, capture_profile
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "MetricsRegistry",
    "SelfProfiler",
    "Span",
    "SpanCollector",
    "capture_metrics",
    "capture_profile",
]

"""``build_system``: the one way to construct a simulated system.

Historically every experiment hand-assembled its stack: pick a builder
(``build_m3v``/``build_m3x``/``LinuxMachine``), then thread each
cross-cutting layer (tracer, recovery policy, fault plan, now metrics)
through by hand.  :func:`build_system` takes a frozen
:class:`~repro.api.SystemConfig` and does all of it in one place; the
result is a :class:`System` that exposes the layers uniformly and
delegates everything else to the underlying platform or machine, so it
drops into existing code that expects a ``plat``.

Globally installed defaults win: inside ``trace.capture()`` /
``obs.capture_metrics()`` / ``obs.capture_profile()`` blocks (and the
runner's trace/metrics modes, which use them) the already-installed
tracer/registry is reused instead of the config's specs, so workloads
stay observable from the outside exactly as before the facade.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.api.config import SystemConfig
from repro.sim import engine

__all__ = ["System", "build_system"]


class System:
    """A built system plus its attached observability layers.

    Attribute access falls through to the wrapped platform/machine, so
    a ``System`` is a drop-in replacement wherever a ``plat`` (or
    ``LinuxMachine``) was used.
    """

    def __init__(self, config: SystemConfig, impl, tracer=None,
                 metrics=None, spans=None):
        self.config = config
        self.kind = config.kind
        self.impl = impl
        self.sim = impl.sim
        self.stats = impl.stats
        self.tracer = tracer if tracer is not None else impl.sim.tracer
        self.metrics = metrics if metrics is not None else impl.sim.metrics
        self.profiler = impl.sim.profiler
        self.spans = spans

    @property
    def platform(self):
        """The tiled platform (``m3v``/``m3``/``m3x`` kinds)."""
        return self.impl

    @property
    def machine(self):
        """The Linux machine (``linux`` kind)."""
        return self.impl

    def __getattr__(self, name: str) -> Any:
        return getattr(self.impl, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<System {self.kind} impl={type(self.impl).__name__}>"


def _build_impl(config: SystemConfig):
    if config.kind == "linux":
        from repro.linuxsim import LinuxMachine

        return LinuxMachine(with_net=config.with_net,
                            wire_latency_us=config.wire_latency_us,
                            remote_proc_us=config.remote_proc_us)
    from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform

    cls = {"m3v": M3vPlatform, "m3": M3Platform, "m3x": M3xPlatform}[config.kind]
    return cls(config.platform_config())


def build_system(config: Optional[SystemConfig] = None,
                 **overrides) -> System:
    """Build the system described by ``config`` (keyword overrides
    patch it first) and attach its layers.  See the module docstring
    for the precedence rules."""
    config = config if config is not None else SystemConfig()
    if overrides:
        config = replace(config, **overrides)

    # Layers: reuse globally installed defaults; otherwise create from
    # the config's specs and install them only for the construction
    # window (each build creates exactly one Simulator, which latches
    # them in __init__).
    tracer = engine._default_tracer
    metrics = engine._default_metrics
    own_tracer = own_metrics = False
    if tracer is None and config.trace is not None:
        from repro.sim.trace import Tracer

        tracer = Tracer(exclude=config.trace.exclude,
                        record=config.trace.record)
        own_tracer = True
    if metrics is None and config.metrics is not None:
        from repro.obs import MetricsRegistry

        spec = config.metrics
        metrics = MetricsRegistry(gauge_interval_ps=spec.gauge_interval_ps,
                                  evq_interval_ps=spec.evq_interval_ps)
        own_metrics = True
    spans = None
    if config.metrics is not None and config.metrics.spans:
        from repro.obs import SpanCollector

        if tracer is None:
            from repro.sim.trace import Tracer

            tracer = Tracer(record=False)
            own_tracer = True
        spans = SpanCollector().attach(tracer)

    try:
        if own_tracer:
            engine.set_default_tracer(tracer)
        if own_metrics:
            engine.set_default_metrics(metrics)
        impl = _build_impl(config)
    finally:
        if own_tracer:
            engine.set_default_tracer(None)
        if own_metrics:
            engine.set_default_metrics(None)

    if config.kind != "linux":
        if config.recovery is not None:
            from repro.mux.recovery import enable_recovery

            enable_recovery(impl, config.recovery)
        if config.faults is not None and config.faults.rate > 0:
            from repro.faults import FaultPlan

            FaultPlan.lossy(config.faults.seed, config.faults.rate,
                            deadline_ps=config.faults.deadline_ps
                            ).apply(impl)
    return System(config, impl, tracer=tracer, metrics=metrics, spans=spans)

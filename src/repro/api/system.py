"""``build_system``: the one way to construct a simulated system.

:func:`build_system` takes a frozen :class:`~repro.api.SystemConfig`,
builds the platform or machine it describes, and attaches the
recovery and fault layers the config asks for.  The result is a
:class:`System` that delegates everything else to the underlying
platform or machine, so it drops into code that expects a ``plat``.

Tracing, metrics and profiling attach one way only: a simulator
latches whatever ``trace.capture()``, ``obs.capture_metrics()`` and
``obs.capture_profile()`` installed when it was built, and reads them
from ``system.sim``.
"""

from __future__ import annotations

from typing import Any

from repro.api.config import SystemConfig

__all__ = ["System", "build_system"]


class System:
    """A built system.

    Attribute access falls through to the wrapped platform/machine, so
    a ``System`` is a drop-in replacement wherever a ``plat`` (or
    ``LinuxMachine``) was used.
    """

    def __init__(self, config: SystemConfig, impl):
        self.config = config
        self.kind = config.kind
        self.impl = impl
        self.sim = impl.sim
        self.stats = impl.stats

    @property
    def platform(self):
        """The tiled platform (``m3v``/``m3x`` kinds)."""
        return self.impl

    @property
    def machine(self):
        """The Linux machine (``linux`` kind)."""
        return self.impl

    def __getattr__(self, name: str) -> Any:
        return getattr(self.impl, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<System {self.kind} impl={type(self.impl).__name__}>"


def build_system(config: SystemConfig) -> System:
    """Build the system described by ``config`` and attach its recovery
    and fault layers."""
    if config.kind == "linux":
        from repro.linuxsim import LinuxMachine

        return System(config, LinuxMachine(with_net=config.with_net))

    from repro.core.platform import M3vPlatform, M3xPlatform

    cls = {"m3v": M3vPlatform, "m3x": M3xPlatform}[config.kind]
    impl = cls(config)
    if config.recovery is not None:
        from repro.mux.recovery import enable_recovery

        enable_recovery(impl, config.recovery)
    if config.faults is not None and config.faults.rate > 0:
        from repro.faults import FaultPlan

        FaultPlan.lossy(config.faults.seed, config.faults.rate,
                        deadline_ps=config.faults.deadline_ps).apply(impl)
    return System(config, impl)

"""The system-construction facade.

>>> from repro.api import SystemConfig, MetricsSpec, build_system
>>> system = build_system(SystemConfig(kind="m3v", n_proc_tiles=2,
...                                    metrics=MetricsSpec(spans=True)))
>>> system.controller          # delegates to the underlying platform
>>> system.metrics             # the attached MetricsRegistry
"""

from repro.api.config import (
    FaultSpec,
    MetricsSpec,
    PlacementSpec,
    SYSTEM_KINDS,
    SchedSpec,
    SystemConfig,
    TraceSpec,
)
from repro.api.system import System, build_system

__all__ = [
    "FaultSpec",
    "MetricsSpec",
    "PlacementSpec",
    "SYSTEM_KINDS",
    "SchedSpec",
    "System",
    "SystemConfig",
    "TraceSpec",
    "build_system",
]

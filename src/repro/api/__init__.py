"""The system-construction facade.

>>> from repro.api import SystemConfig, build_system
>>> from repro.obs import capture_metrics
>>> with capture_metrics() as metrics:
...     system = build_system(SystemConfig(kind="m3v", n_proc_tiles=2))
>>> system.controller          # delegates to the underlying platform
>>> system.sim.metrics is metrics
True
"""

from repro.api.config import SYSTEM_KINDS, FaultSpec, SystemConfig
from repro.api.system import System, build_system

__all__ = [
    "FaultSpec",
    "SYSTEM_KINDS",
    "System",
    "SystemConfig",
    "build_system",
]

"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from repro.api import System, SystemConfig, build_system


def fpga_system(kind: str = "m3v", **shape) -> System:
    """Build the FPGA prototype of Figure 4 (the ``SystemConfig``
    defaults), optionally reshaped."""
    return build_system(SystemConfig(kind=kind, **shape))


def linux_system(**shape) -> System:
    """Build the Linux reference machine."""
    return build_system(SystemConfig(kind="linux", **shape))

"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Dict, Generator

from repro.api import System, SystemConfig, build_system
from repro.core.platform import M3vPlatform


def fpga_system(kind: str = "m3v", **shape) -> System:
    """Build the FPGA prototype of Figure 4 (the ``SystemConfig``
    defaults), optionally reshaped."""
    return build_system(SystemConfig(kind=kind, **shape))


def linux_system(**shape) -> System:
    """Build the Linux reference machine."""
    return build_system(SystemConfig(kind="linux", **shape))


def rendezvous(api, env: Dict, *keys) -> Generator:
    """Boot-time helper: wait for the harness to publish channel ids."""
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def wait_all(plat: M3vPlatform, acts, limit: int = 10**14) -> None:
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=limit)

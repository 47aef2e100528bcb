"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Dict, Generator

from repro.api import System, SystemConfig, build_system


def fpga_system(kind: str = "m3v", **shape) -> System:
    """Build the FPGA prototype of Figure 4 (the ``SystemConfig``
    defaults), optionally reshaped."""
    return build_system(SystemConfig(kind=kind, **shape))


def linux_system(**shape) -> System:
    """Build the Linux reference machine."""
    return build_system(SystemConfig(kind="linux", **shape))


def rendezvous(api, env: Dict, *keys) -> Generator:
    """Boot-time helper: wait for the harness to publish channel ids.

    Re-checks every simulated microsecond by yielding the delay itself
    (the engine's tick fast path, no ``Timeout`` per poll).  The harness
    only ever adds keys, so only the still-missing ones are re-checked.
    """
    missing = [k for k in keys if k not in env]
    while missing:
        yield 1_000_000
        missing = [k for k in missing if k not in env]

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
    only ever adds keys, so a poll resumes at the first key that was
    still missing: the keys before it stay published.
    """
    i = 0
    while i < len(keys):
        if keys[i] in env:
            i += 1
        else:
            yield 1_000_000

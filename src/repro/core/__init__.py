"""Top-level system assembly and experiment plumbing.

* :mod:`repro.core.platform` — builds complete M3v and M3x platforms
  (tiles, NoC, DTUs, multiplexers, controller) from a
  :class:`~repro.api.SystemConfig`.
* :mod:`repro.core.results` — result tables shared by the benchmark
  harness and EXPERIMENTS.md generation.
"""

from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform

__all__ = ["M3Platform", "M3vPlatform", "M3xPlatform"]

"""Top-level system assembly and experiment plumbing.

* :mod:`repro.core.platform` — builds complete M3v and M3x platforms
  (tiles, NoC, DTUs, multiplexers, controller) from a
  :class:`~repro.api.SystemConfig`.
* :mod:`repro.core.exps` — one experiment runner per table, figure and
  ablation, each a sweep of pure per-point functions.
* :mod:`repro.core.report` — ASCII figures and the shape checks, the
  paper's qualitative claims checked against a results file.
"""

from repro.core.platform import M3vPlatform, M3xPlatform

__all__ = ["M3vPlatform", "M3xPlatform"]

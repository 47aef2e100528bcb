"""Point specs: the unit of work the scheduler fans out.

A :class:`PointSpec` names one point of one sweep: the sweep, the
point's position within it, its frozen config, and a deterministic
per-point RNG seed.  The seed is derived from ``(sweep name, index)``
— *not* from process-global RNG state — so a point produces the same
result no matter which worker runs it or in what order points are
submitted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.runner.registry import get_sweep

__all__ = ["PointSpec", "make_specs", "point_seed"]


@dataclass(frozen=True)
class PointSpec:
    sweep: str
    index: int
    config: Any
    seed: int


def point_seed(sweep: str, index: int) -> int:
    """Deterministic 64-bit seed for point ``index`` of ``sweep``."""
    blob = f"{sweep}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def make_specs(sweep_name: str, points: Optional[Sequence[Any]] = None
               ) -> List[PointSpec]:
    """The ordered point specs of ``points``, by default the sweep's
    paper-scale points."""
    sweep = get_sweep(sweep_name)
    if points is None:
        points = sweep.points()
    return [PointSpec(sweep_name, i, config, point_seed(sweep_name, i))
            for i, config in enumerate(points)]

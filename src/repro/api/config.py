"""Frozen configuration for :func:`repro.api.build_system`.

One :class:`SystemConfig` describes *what to build*: the system kind,
its hardware shape, and the recovery, fault, scheduling and placement
layers that are part of the system.  It is the only system
description; the platforms take it as is.  Tracing, metrics and
profiling are not part of it: they attach from the outside through
``trace.capture()``, ``obs.capture_metrics()`` and
``obs.capture_profile()``.  Being frozen, a config can be stored,
compared, and reused; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults import DEFAULT_DEADLINE_PS
from repro.kernel.rebalance import PlacementSpec
from repro.mux.recovery import RecoveryPolicy
from repro.mux.sched import SchedSpec
from repro.tiles import BOOM, CoreCosts, ROCKET

SYSTEM_KINDS = ("m3v", "m3", "m3x", "linux")

__all__ = ["FaultSpec", "PlacementSpec", "SYSTEM_KINDS", "SchedSpec",
           "SystemConfig"]


@dataclass(frozen=True)
class FaultSpec:
    """Seeded lossy-link fault injection (:class:`repro.faults.FaultPlan`).

    ``seed`` may be any hashable (figR uses strings); ``rate`` is the
    drop probability per user-plane packet (corruption runs at a quarter
    of it, matching ``FaultPlan.lossy``).  Rate 0 attaches nothing.
    """

    seed: Any = 0
    rate: float = 0.0
    deadline_ps: int = DEFAULT_DEADLINE_PS


@dataclass(frozen=True)
class SystemConfig:
    """Everything :func:`repro.api.build_system` needs.

    The defaults are the FPGA prototype of Figure 4: 8 BOOM processing
    tiles, a controller on a Rocket core and 2 DDR4 memory tiles.  The
    ``linux`` kind uses ``with_net`` instead and ignores the tile shape.
    """

    kind: str = "m3v"                       # m3v | m3 | m3x | linux
    # tiled-platform shape
    n_proc_tiles: int = 8
    proc_core: CoreCosts = BOOM
    controller_core: CoreCosts = ROCKET
    n_mem_tiles: int = 2
    dram_bytes: int = 64 * 1024 * 1024
    timeslice_us: float = 1000.0
    # heterogeneous cores: tile index -> CoreCosts (overrides proc_core)
    core_overrides: Dict[int, CoreCosts] = field(default_factory=dict)
    dtu_overrides: Dict[str, int] = field(default_factory=dict)
    # linux machine shape
    with_net: bool = False
    # recovery and fault injection, both off by default
    recovery: Optional[RecoveryPolicy] = None
    faults: Optional[FaultSpec] = None
    # the cross-tile causality check (repro.sim.parallel): off unless
    # set here or by REPRO_SHARDS=1; its lookahead is the NoC bound
    check_causality: bool = False
    # TileMux scheduling (m3v/m3 only) and adaptive placement (m3v only)
    sched: Optional[SchedSpec] = None
    placement: Optional[PlacementSpec] = None

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}; "
                             f"expected one of {SYSTEM_KINDS}")
        if self.sched is not None and self.kind not in ("m3v", "m3"):
            raise ValueError(f"sched= requires a TileMux kind (m3v/m3), "
                             f"not {self.kind!r}")
        if self.placement is not None and self.kind != "m3v":
            raise ValueError(f"placement= (live migration) is m3v-only, "
                             f"not available on {self.kind!r}")

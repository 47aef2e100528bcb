"""Frozen configuration for :func:`repro.api.build_system`.

One :class:`SystemConfig` describes *what to build*: the system kind,
its hardware shape, and the recovery, fault, scheduling and placement
layers that are part of the system, each carrying only what a figure
varies.  It is the only system description; the platforms take it as
is.  Tracing, metrics, profiling and the causality check are not part
of it: they attach from the outside through ``trace.capture()``,
``obs.capture_metrics()``, ``obs.capture_profile()`` and
``REPRO_SHARDS=1``.  Being frozen, a config can be stored, compared,
and reused; derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.faults import DEFAULT_DEADLINE_PS
from repro.mux.recovery import RecoveryPolicy
from repro.mux.sched import SCHED_POLICIES
from repro.tiles import BOOM, ROCKET, CoreCosts

SYSTEM_KINDS = ("m3v", "m3x", "linux")

__all__ = ["FaultSpec", "SYSTEM_KINDS", "SystemConfig"]


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

    kind: str = "m3v"                       # m3v | m3x | linux
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
    # TileMux scheduling (rr | edf) and adaptive placement: the
    # controller rebalancer of repro.kernel.rebalance (both m3v only)
    sched: str = "rr"
    rebalance: bool = False

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}; "
                             f"expected one of {SYSTEM_KINDS}")
        if self.sched not in SCHED_POLICIES:
            raise ValueError(f"unknown sched policy {self.sched!r}; "
                             f"expected one of {SCHED_POLICIES}")
        if self.sched != "rr" and self.kind != "m3v":
            raise ValueError(f"sched={self.sched!r} requires a TileMux "
                             f"kind (m3v), not {self.kind!r}")
        if self.rebalance and self.kind != "m3v":
            raise ValueError(f"rebalance= (live migration) is m3v-only, "
                             f"not available on {self.kind!r}")

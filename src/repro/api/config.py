"""Frozen configuration for :func:`repro.api.build_system`.

One :class:`SystemConfig` describes *what to build* (system kind and
hardware shape) and *which cross-cutting layers to attach* (trace,
metrics, recovery, faults).  Being frozen, a config can be stored,
compared, and reused; deriving variants goes through
:func:`dataclasses.replace` (or the keyword overrides of
``build_system``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.platform import PlatformConfig
from repro.faults import DEFAULT_DEADLINE_PS
from repro.kernel.rebalance import PlacementSpec
from repro.mux.recovery import RecoveryPolicy
from repro.mux.sched import SchedSpec
from repro.noc import NocParams
from repro.tiles import BOOM, CoreCosts, ROCKET

SYSTEM_KINDS = ("m3v", "m3", "m3x", "linux")

__all__ = ["FaultSpec", "MetricsSpec", "PlacementSpec", "SYSTEM_KINDS",
           "SchedSpec", "SystemConfig", "TraceSpec"]


@dataclass(frozen=True)
class TraceSpec:
    """Attach a :class:`repro.sim.trace.Tracer` to the built system."""

    exclude: Tuple[str, ...] = ()
    record: bool = True


@dataclass(frozen=True)
class MetricsSpec:
    """Attach a :class:`repro.obs.MetricsRegistry` (and optionally a
    :class:`repro.obs.SpanCollector`, which needs a trace stream — a
    record-free tracer is created if none is configured)."""

    spans: bool = False
    gauge_interval_ps: int = 10_000_000
    evq_interval_ps: int = 10_000_000


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

    The hardware-shape fields mirror :class:`PlatformConfig` for the
    tiled kinds (``m3v``/``m3``/``m3x``); the ``linux`` kind uses the
    single-machine fields instead and ignores tile counts.
    """

    kind: str = "m3v"                       # m3v | m3 | m3x | linux
    # tiled-platform shape (mirrors PlatformConfig)
    n_proc_tiles: int = 8
    proc_core: CoreCosts = BOOM
    controller_core: CoreCosts = ROCKET
    n_mem_tiles: int = 2
    dram_bytes: int = 64 * 1024 * 1024
    noc: NocParams = field(default_factory=NocParams)
    timeslice_us: float = 1000.0
    core_overrides: Dict[int, CoreCosts] = field(default_factory=dict)
    dtu_overrides: Dict[str, int] = field(default_factory=dict)
    # linux machine shape
    with_net: bool = False
    wire_latency_us: float = 2.0
    remote_proc_us: float = 25.0
    # cross-cutting layers, all off by default
    trace: Optional[TraceSpec] = None
    metrics: Optional[MetricsSpec] = None
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

    # -- converters -----------------------------------------------------------

    def platform_config(self) -> PlatformConfig:
        """The :class:`PlatformConfig` slice of this config."""
        return PlatformConfig(
            n_proc_tiles=self.n_proc_tiles,
            proc_core=self.proc_core,
            controller_core=self.controller_core,
            n_mem_tiles=self.n_mem_tiles,
            dram_bytes=self.dram_bytes,
            noc=self.noc,
            timeslice_us=self.timeslice_us,
            core_overrides=dict(self.core_overrides),
            dtu_overrides=dict(self.dtu_overrides),
            check_causality=self.check_causality,
            sched=self.sched,
            placement=self.placement,
        )

    @classmethod
    def from_platform(cls, kind: str,
                      config: Optional[PlatformConfig] = None,
                      **layers) -> "SystemConfig":
        """Lift a legacy :class:`PlatformConfig` into a SystemConfig."""
        pc = config or PlatformConfig()
        layers.setdefault("sched", pc.sched)
        layers.setdefault("placement", pc.placement)
        return cls(kind=kind,
                   n_proc_tiles=pc.n_proc_tiles,
                   proc_core=pc.proc_core,
                   controller_core=pc.controller_core,
                   n_mem_tiles=pc.n_mem_tiles,
                   dram_bytes=pc.dram_bytes,
                   noc=pc.noc,
                   timeslice_us=pc.timeslice_us,
                   core_overrides=dict(pc.core_overrides),
                   dtu_overrides=dict(pc.dtu_overrides),
                   **layers)

    def with_(self, **overrides) -> "SystemConfig":
        """Frozen-friendly ``replace`` shorthand."""
        return replace(self, **overrides)

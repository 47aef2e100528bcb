"""Platform assembly.

Builds the M3v platform of Figure 4: processing tiles (vDTU + TileMux),
a controller tile, memory tiles with DDR4 interfaces, all connected by
the 2x2 star-mesh NoC.  The tile counts are configurable to cover both
the FPGA prototype (8 processing tiles) and the gem5 configuration of
section 6.4 (up to 12 processing tiles, 3 GHz x86 cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional

from repro.dtu import ACT_TILEMUX, DtuParams, MemoryDtu, SendEndpoint, VDtu
from repro.dtu.dtu import Dtu
from repro.kernel.caps import RGateObj
from repro.kernel.controller import (
    Controller,
    EP_TMUX_PAGER,
)
from repro.kernel.rebalance import PlacementSpec, Rebalancer
from repro.mux.sched import SchedSpec
from repro.mux.tilemux import TileMux
from repro.noc import NocFabric, NocParams, StarMeshTopology
from repro.sim import Simulator
from repro.sim.stats import StatRegistry
from repro.tiles import BOOM, CoreCosts, ROCKET, Tile, TileKind


@dataclass
class PlatformConfig:
    """Shape and parameters of a platform instance."""

    n_proc_tiles: int = 8
    proc_core: CoreCosts = BOOM
    controller_core: CoreCosts = ROCKET
    n_mem_tiles: int = 2
    dram_bytes: int = 64 * 1024 * 1024
    noc: NocParams = field(default_factory=NocParams)
    timeslice_us: float = 1000.0
    # heterogeneous cores: tile index -> CoreCosts (overrides proc_core)
    core_overrides: Dict[int, CoreCosts] = field(default_factory=dict)
    dtu_overrides: Dict[str, int] = field(default_factory=dict)
    # the cross-tile causality check (repro.sim.parallel); False = off
    # unless REPRO_SHARDS=1 turns it on at Simulator construction
    check_causality: bool = False
    # TileMux scheduling policy (repro.mux.sched); None = round-robin
    sched: Optional[SchedSpec] = None
    # adaptive placement (repro.kernel.rebalance); None = static (off)
    placement: Optional[PlacementSpec] = None

    def with_tiles(self, n: int) -> "PlatformConfig":
        return replace(self, n_proc_tiles=n)


def _simulator(config: "PlatformConfig") -> Simulator:
    """The platform's Simulator; a causality-checked one uses the NoC
    bound (:meth:`repro.noc.NocParams.lookahead_ps`) as its lookahead."""
    return Simulator(check_causality=config.check_causality or None,
                     lookahead=config.noc.lookahead_ps())


class M3vPlatform:
    """A built platform: simulator, tiles, fabric, controller."""

    def __init__(self, config: PlatformConfig):
        self.config = config
        self.stats = StatRegistry()

        n = config.n_proc_tiles
        self.proc_tile_ids = list(range(n))
        self.ctrl_tile_id = n
        self.mem_tile_ids = list(range(n + 1, n + 1 + config.n_mem_tiles))
        all_tiles = self.proc_tile_ids + [self.ctrl_tile_id] + self.mem_tile_ids

        self.sim = _simulator(config)

        topo = StarMeshTopology(all_tiles)
        self.fabric = NocFabric(self.sim, topo, params=config.noc,
                                stats=self.stats)

        self.tiles: Dict[int, Tile] = {}
        for tid in self.proc_tile_ids:
            costs = config.core_overrides.get(tid, config.proc_core)
            params = DtuParams.for_clock(costs.clock.period_ps,
                                         **config.dtu_overrides)
            beacon_us = (config.placement.interval_us
                         if config.placement is not None else None)
            with self.sim.tile_scope(tid):
                vdtu = VDtu(self.sim, tid, self.fabric, params=params,
                            stats=self.stats)
                mux = TileMux(self.sim, tid, vdtu, costs, stats=self.stats,
                              timeslice_us=config.timeslice_us,
                              sched=config.sched, beacon_us=beacon_us)
            self.tiles[tid] = Tile(tid, TileKind.PROCESSING, costs=costs,
                                   dtu=vdtu, mux=mux)

        ctrl_costs = config.controller_core
        ctrl_params = DtuParams.for_clock(ctrl_costs.clock.period_ps,
                                          **config.dtu_overrides)
        with self.sim.tile_scope(self.ctrl_tile_id):
            ctrl_dtu = Dtu(self.sim, self.ctrl_tile_id, self.fabric,
                           params=ctrl_params, stats=self.stats)
            self.tiles[self.ctrl_tile_id] = Tile(self.ctrl_tile_id,
                                                 TileKind.CONTROLLER,
                                                 costs=ctrl_costs,
                                                 dtu=ctrl_dtu)
            self.controller = Controller(self.sim, self.ctrl_tile_id,
                                         ctrl_dtu, costs=ctrl_costs,
                                         stats=self.stats)

        for tid in self.mem_tile_ids:
            with self.sim.tile_scope(tid):
                mdtu = MemoryDtu(self.sim, tid, self.fabric,
                                 dram_size=config.dram_bytes,
                                 stats=self.stats)
            self.tiles[tid] = Tile(tid, TileKind.MEMORY, dtu=mdtu)

        with self.sim.tile_scope(self.ctrl_tile_id):
            self.controller.boot([(tid, config.dram_bytes)
                                  for tid in self.mem_tile_ids],
                                 n_tiles=config.n_proc_tiles)
        for tid in self.proc_tile_ids:
            with self.sim.tile_scope(tid):
                self.controller.boot_wire_tile(tid, self.tiles[tid].mux)
        self._start_rebalancer()

    def _start_rebalancer(self) -> None:
        # adaptive placement: a controller-tile process, so every input
        # it reads (beacon mailbox, quarantine set, placement table) is
        # local to the controller tile
        self.rebalancer: Optional[Rebalancer] = None
        if self.config.placement is not None:
            with self.sim.tile_scope(self.ctrl_tile_id):
                self.rebalancer = Rebalancer(self.sim, self.controller,
                                             self.config.placement,
                                             self.proc_tile_ids)

    # ------------------------------------------------------------ conveniences

    def mux(self, tile_id: int) -> TileMux:
        return self.tiles[tile_id].mux

    def proc_tiles(self) -> List[Tile]:
        """The processing tiles, in tile-id order."""
        return [self.tiles[tid] for tid in self.proc_tile_ids]

    def vdtu(self, tile_id: int) -> VDtu:
        return self.tiles[tile_id].dtu

    def mem_dtu(self, idx: int = 0) -> MemoryDtu:
        return self.tiles[self.mem_tile_ids[idx]].dtu

    def run_proc(self, gen: Generator, name: str = "setup"):
        """Run a generator as a simulation process to completion."""
        proc = self.sim.process(gen, name=name)
        return self.sim.run_until_event(proc, limit=self.sim.now + 10**13)

    def wire_pager_eps(self, pager_rgate: RGateObj,
                       tile_ids: Optional[List[int]] = None) -> None:
        """Give every TileMux a send gate to the pager service (4.3).

        Boot-time wiring: runs without simulation cost.
        """
        for tid in tile_ids or self.proc_tile_ids:
            if tid == pager_rgate.tile:
                pass  # TileMux may send to a pager on its own tile too
            self.vdtu(tid).configure(EP_TMUX_PAGER, SendEndpoint(
                act=ACT_TILEMUX, dst_tile=pager_rgate.tile,
                dst_ep=pager_rgate.ep, label=tid,
                credits=2, max_credits=2))

    @property
    def now_us(self) -> float:
        return self.sim.now / 1e6


class M3Platform(M3vPlatform):
    """The original M3 (ASPLOS '16): **no tile multiplexing**.

    One activity per tile, period (section 2.1): a tile cannot start a
    new activity until the current one terminated, and co-locating two
    activities is rejected outright.  Useful as the isolation-maximal
    reference point of the M3 / M3x / M3v spectrum.
    """

    def __init__(self, config: PlatformConfig):
        super().__init__(config)
        ctrl = self.controller
        orig_spawn = ctrl.spawn.__get__(ctrl)

        def m3_spawn(name, tile_id, program, **kwargs):
            mux = self.tiles[tile_id].mux
            if mux.resident > 0:
                from repro.kernel.controller import SyscallError
                raise SyscallError(
                    f"M3 runs at most one activity per tile; tile "
                    f"{tile_id} is occupied (use M3x/M3v to multiplex)")
            return (yield from orig_spawn(name, tile_id, program, **kwargs))

        ctrl.spawn = m3_spawn


class M3xPlatform(M3vPlatform):
    """The M3x baseline platform (section 6.4).

    Processing tiles carry a *non-virtualized* DTU and a thin RCTMux;
    all multiplexing runs remotely in the (M3x-extended) controller.
    """

    def __init__(self, config: PlatformConfig):
        # Same assembly as M3v, but swap the per-tile pieces afterwards
        # would leave stale processes; build from scratch instead.
        from repro.mux.m3x import M3xController, M3xMux

        self.config = config
        self.stats = StatRegistry()

        n = config.n_proc_tiles
        self.proc_tile_ids = list(range(n))
        self.ctrl_tile_id = n
        self.mem_tile_ids = list(range(n + 1, n + 1 + config.n_mem_tiles))
        all_tiles = self.proc_tile_ids + [self.ctrl_tile_id] + self.mem_tile_ids

        self.sim = _simulator(config)

        topo = StarMeshTopology(all_tiles)
        self.fabric = NocFabric(self.sim, topo, params=config.noc,
                                stats=self.stats)

        self.tiles = {}
        for tid in self.proc_tile_ids:
            costs = config.core_overrides.get(tid, config.proc_core)
            params = DtuParams.for_clock(costs.clock.period_ps,
                                         **config.dtu_overrides)
            with self.sim.tile_scope(tid):
                dtu = Dtu(self.sim, tid, self.fabric, params=params,
                          stats=self.stats)
                mux = M3xMux(self.sim, tid, dtu, costs, stats=self.stats)
            self.tiles[tid] = Tile(tid, TileKind.PROCESSING, costs=costs,
                                   dtu=dtu, mux=mux)

        ctrl_costs = config.controller_core
        ctrl_params = DtuParams.for_clock(ctrl_costs.clock.period_ps,
                                          **config.dtu_overrides)
        with self.sim.tile_scope(self.ctrl_tile_id):
            ctrl_dtu = Dtu(self.sim, self.ctrl_tile_id, self.fabric,
                           params=ctrl_params, stats=self.stats)
            self.tiles[self.ctrl_tile_id] = Tile(self.ctrl_tile_id,
                                                 TileKind.CONTROLLER,
                                                 costs=ctrl_costs,
                                                 dtu=ctrl_dtu)
            self.controller = M3xController(self.sim, self.ctrl_tile_id,
                                            ctrl_dtu, costs=ctrl_costs,
                                            stats=self.stats)
        # remote multiplexing has no tile-local contexts to live-migrate
        self.rebalancer = None

        for tid in self.mem_tile_ids:
            with self.sim.tile_scope(tid):
                mdtu = MemoryDtu(self.sim, tid, self.fabric,
                                 dram_size=config.dram_bytes,
                                 stats=self.stats)
            self.tiles[tid] = Tile(tid, TileKind.MEMORY, dtu=mdtu)

        with self.sim.tile_scope(self.ctrl_tile_id):
            self.controller.boot([(tid, config.dram_bytes)
                                  for tid in self.mem_tile_ids],
                                 n_tiles=config.n_proc_tiles)
        for tid in self.proc_tile_ids:
            with self.sim.tile_scope(tid):
                self.controller.boot_wire_tile(tid, self.tiles[tid].mux)

"""Platform assembly.

Builds the M3v platform of Figure 4: processing tiles (vDTU + TileMux),
a controller tile, memory tiles with DDR4 interfaces, all connected by
the 2x2 star-mesh NoC.  The tile counts come from a
:class:`~repro.api.SystemConfig`, covering both the FPGA prototype (8
processing tiles) and the gem5 configuration of section 6.4 (up to 12
processing tiles, 3 GHz x86 cores).  The M3x baseline shares this
assembly and swaps only the processing tile's DTU + multiplexer and the
controller class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple, Type

from repro.dtu import ACT_TILEMUX, DtuParams, MemoryDtu, SendEndpoint, VDtu
from repro.dtu.dtu import Dtu
from repro.kernel.caps import RGateObj
from repro.kernel.controller import (
    Controller,
    EP_TMUX_PAGER,
)
from repro.kernel.rebalance import Rebalancer
from repro.mux.tilemux import TileMux
from repro.noc import NocFabric, NocParams, StarMeshTopology
from repro.sim import Simulator
from repro.tiles import CoreCosts, Tile, TileKind

if TYPE_CHECKING:
    from repro.api.config import SystemConfig


class M3vPlatform:
    """A built platform: simulator, tiles, fabric, controller."""

    def __init__(self, config: SystemConfig):
        self.config = config

        n = config.n_proc_tiles
        self.proc_tile_ids = list(range(n))
        self.ctrl_tile_id = n
        self.mem_tile_ids = list(range(n + 1, n + 1 + config.n_mem_tiles))
        all_tiles = self.proc_tile_ids + [self.ctrl_tile_id] + self.mem_tile_ids

        # a causality-checked simulator uses the NoC bound as lookahead
        noc = NocParams()
        self.sim = Simulator(check_causality=config.check_causality or None,
                             lookahead=noc.lookahead_ps())
        self.stats = self.sim.stats
        self.fabric = NocFabric(self.sim, StarMeshTopology(all_tiles),
                                params=noc)

        self.tiles: Dict[int, Tile] = {}
        for tid in self.proc_tile_ids:
            costs = config.core_overrides.get(tid, config.proc_core)
            params = DtuParams.for_clock(costs.clock.period_ps,
                                         **config.dtu_overrides)
            with self.sim.tile_scope(tid):
                dtu, mux = self._proc_tile(tid, costs, params)
            self.tiles[tid] = Tile(tid, TileKind.PROCESSING, costs=costs,
                                   dtu=dtu, mux=mux)

        ctrl_costs = config.controller_core
        ctrl_params = DtuParams.for_clock(ctrl_costs.clock.period_ps,
                                          **config.dtu_overrides)
        with self.sim.tile_scope(self.ctrl_tile_id):
            ctrl_dtu = Dtu(self.sim, self.ctrl_tile_id, self.fabric,
                           params=ctrl_params)
            self.tiles[self.ctrl_tile_id] = Tile(self.ctrl_tile_id,
                                                 TileKind.CONTROLLER,
                                                 costs=ctrl_costs,
                                                 dtu=ctrl_dtu)
            self.controller = self._controller_cls()(
                self.sim, self.ctrl_tile_id, ctrl_dtu, costs=ctrl_costs)

        for tid in self.mem_tile_ids:
            with self.sim.tile_scope(tid):
                mdtu = MemoryDtu(self.sim, tid, self.fabric,
                                 dram_size=config.dram_bytes)
            self.tiles[tid] = Tile(tid, TileKind.MEMORY, dtu=mdtu)

        with self.sim.tile_scope(self.ctrl_tile_id):
            self.controller.boot([(tid, config.dram_bytes)
                                  for tid in self.mem_tile_ids],
                                 n_tiles=config.n_proc_tiles)
        for tid in self.proc_tile_ids:
            with self.sim.tile_scope(tid):
                self.controller.boot_wire_tile(tid, self.tiles[tid].mux)

        # adaptive placement: a controller-tile process, so every input
        # it reads (beacon mailbox, quarantine set, placement table) is
        # local to the controller tile
        self.rebalancer: Optional[Rebalancer] = None
        if config.placement is not None:
            with self.sim.tile_scope(self.ctrl_tile_id):
                self.rebalancer = Rebalancer(self.sim, self.controller,
                                             config.placement,
                                             self.proc_tile_ids)

    def _proc_tile(self, tid: int, costs: CoreCosts,
                   params: DtuParams) -> Tuple[Dtu, Any]:
        """A processing tile's DTU and multiplexer: a vDTU and TileMux."""
        placement = self.config.placement
        vdtu = VDtu(self.sim, tid, self.fabric, params=params)
        mux = TileMux(self.sim, tid, vdtu, costs,
                      timeslice_us=self.config.timeslice_us,
                      sched=self.config.sched,
                      beacon_us=(placement.interval_us
                                 if placement is not None else None))
        return vdtu, mux

    def _controller_cls(self) -> Type[Controller]:
        return Controller

    # ------------------------------------------------------------ conveniences

    def mux(self, tile_id: int) -> TileMux:
        return self.tiles[tile_id].mux

    def proc_tiles(self) -> List[Tile]:
        """The processing tiles, in tile-id order."""
        return [self.tiles[tid] for tid in self.proc_tile_ids]

    def vdtu(self, tile_id: int) -> VDtu:
        return self.tiles[tile_id].dtu

    def run_proc(self, gen: Generator, name: str = "setup"):
        """Run a generator as a simulation process to completion."""
        proc = self.sim.process(gen, name=name)
        return self.sim.run_until_event(proc, limit=self.sim.now + 10**13)

    def wire_pager_eps(self, pager_rgate: RGateObj,
                       tile_ids: Optional[List[int]] = None) -> None:
        """Give every TileMux a send gate to the pager service (4.3).

        Boot-time wiring: runs without simulation cost.
        """
        # the pager's own tile included: TileMux may send to a pager on
        # its own tile too
        for tid in tile_ids or self.proc_tile_ids:
            self.vdtu(tid).configure(EP_TMUX_PAGER, SendEndpoint(
                act=ACT_TILEMUX, dst_tile=pager_rgate.tile,
                dst_ep=pager_rgate.ep, label=tid,
                credits=2, max_credits=2))

    @property
    def now_us(self) -> float:
        return self.sim.now / 1e6


class M3xPlatform(M3vPlatform):
    """The M3x baseline platform (section 6.4).

    Processing tiles carry a *non-virtualized* DTU and a thin RCTMux;
    all multiplexing runs remotely in the (M3x-extended) controller.
    Remote multiplexing has no tile-local contexts to live-migrate, so
    there is no rebalancer.  :mod:`repro.mux.m3x` is imported on the
    first M3x build, so M3v-only runs never load it.
    """

    def _proc_tile(self, tid: int, costs: CoreCosts,
                   params: DtuParams) -> Tuple[Dtu, Any]:
        from repro.mux.m3x import M3xMux

        dtu = Dtu(self.sim, tid, self.fabric, params=params)
        return dtu, M3xMux(self.sim, tid, dtu, costs)

    def _controller_cls(self) -> Type[Controller]:
        from repro.mux.m3x import M3xController

        return M3xController

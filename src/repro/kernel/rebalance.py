"""Controller-side activity rebalancing (adaptive placement).

The :class:`Rebalancer` is a simulation process on the controller tile
that closes the loop the obs layer opened: each interval it looks at
the per-tile runnable depth (reported by every TileMux as
``TmuxNotify.LOAD`` beacons over the notify channel; the beacons are
the only record of it) and at the controller's quarantine set, and
live-migrates activities off hot or quarantined tiles via
:meth:`repro.kernel.controller.Controller.migrate`.

Determinism: every input the rebalancer consumes lives on the
controller tile — quarantine state, the LOAD beacon mailbox (fed by
NoC messages), and its own cooldown table.  It never reads another
tile's mux or gauge state directly (REP004), so its decisions are
identical with and without the cross-tile causality check.  Scans
walk tiles and activities in sorted-id order for the same reason.

The policy itself is deliberately simple (the figS experiment measures
the *mechanism*): evacuate quarantined tiles first, then move one
activity per tick from the hottest tile to the coolest when the
imbalance exceeds a threshold.  Refused migrations (the tile-side
re-validation owns the truth: running, sleeping, or already-exited
activities stay put) are simply retried on a later tick via cooldown.
``SystemConfig.rebalance`` attaches the rebalancer; its settings are
class constants, the values figS's adaptive arm runs.
"""

from __future__ import annotations

from typing import Dict, Generator, List

__all__ = ["Rebalancer"]


class Rebalancer:
    """Periodic migration controller; one instance per platform."""

    INTERVAL_US = 200.0     # tick period, and the TileMux beacon period
    HOT_DEPTH = 2           # runnable depth that marks a tile hot
    SPREAD = 2              # min hot-cool gap before moving one
    COOLDOWN_US = 1000.0    # per-activity migration cooldown
    MAX_MIGRATIONS = 32     # migration budget per platform

    def __init__(self, sim, controller, proc_tile_ids: List[int]):
        self.sim = sim
        self.controller = controller
        self.tiles = sorted(proc_tile_ids)
        self.interval_ps = round(self.INTERVAL_US * 1_000_000)
        self.cooldown_ps = round(self.COOLDOWN_US * 1_000_000)
        self.migrations = 0
        self._cooldown: Dict[int, int] = {}    # act_id -> earliest next try
        self._proc = sim.process(self._run(), name="rebalancer")

    # ------------------------------------------------------------------ loop

    def _run(self) -> Generator:
        while True:
            yield self.interval_ps
            yield from self.controller.drain_retargets()
            if self.migrations >= self.MAX_MIGRATIONS:
                continue
            yield from self._tick()

    def _tick(self) -> Generator:
        ctrl = self.controller
        load = {t: ctrl._tile_load.get(t, 0) for t in self.tiles}
        healthy = [t for t in self.tiles if t not in ctrl.quarantined]
        if not healthy:
            return
        for tile in sorted(ctrl.quarantined):
            if tile not in load:
                continue
            for act_id in self._residents(tile):
                target = min(healthy, key=lambda t: (load[t], t))
                moved = yield from self._try_migrate(act_id, target)
                if moved:
                    load[target] += 1
                if self.migrations >= self.MAX_MIGRATIONS:
                    return
        hot = max(healthy, key=lambda t: (load[t], -t))
        cool = min(healthy, key=lambda t: (load[t], t))
        if (load[hot] < self.HOT_DEPTH
                or load[hot] - load[cool] < self.SPREAD):
            return
        for act_id in self._residents(hot):
            moved = yield from self._try_migrate(act_id, cool)
            if moved:
                return

    # --------------------------------------------------------------- helpers

    def _residents(self, tile: int) -> List[int]:
        """Activity ids the *controller* places on ``tile``, sorted.

        Uses the controller's own placement table (not the activities'
        live state, which belongs to other tiles) so the scan order
        depends on controller state only.
        """
        now = self.sim.now
        return [act_id for act_id, tid
                in sorted(self.controller._act_tiles.items())
                if tid == tile and self._cooldown.get(act_id, 0) <= now]

    def _try_migrate(self, act_id: int, target: int) -> Generator:
        self._cooldown[act_id] = self.sim.now + self.cooldown_ps
        moved = yield from self.controller.migrate(act_id, target)
        if moved:
            self.migrations += 1
        return moved

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

__all__ = ["PlacementSpec", "Rebalancer"]


@dataclass(frozen=True)
class PlacementSpec:
    """Frozen adaptive-placement configuration (m3v only).

    Attaching a spec turns on the TileMux load beacons and the
    controller rebalancer; the default ``SystemConfig`` leaves it off,
    so the fault-free static-placement path runs zero extra events.
    """

    interval_us: float = 500.0     # beacon + rebalance tick period
    hot_depth: int = 3             # runnable depth that marks a tile hot
    spread: int = 2                # min hot-cool gap before moving one
    cooldown_us: float = 2000.0    # per-activity migration cooldown
    max_migrations: int = 32       # campaign-level migration budget
    evacuate_quarantined: bool = True

    def __post_init__(self):
        if self.interval_us <= 0:
            raise ValueError(f"placement interval {self.interval_us} us "
                             f"must be positive")
        if self.hot_depth < 1 or self.spread < 1:
            raise ValueError("hot_depth and spread must be >= 1")


class Rebalancer:
    """Periodic migration controller; one instance per platform."""

    def __init__(self, sim, controller, spec: PlacementSpec,
                 proc_tile_ids: List[int]):
        self.sim = sim
        self.controller = controller
        self.spec = spec
        self.tiles = sorted(proc_tile_ids)
        self.interval_ps = round(spec.interval_us * 1_000_000)
        self.cooldown_ps = round(spec.cooldown_us * 1_000_000)
        self.migrations = 0
        self._cooldown: Dict[int, int] = {}    # act_id -> earliest next try
        self._proc = sim.process(self._run(), name="rebalancer")

    # ------------------------------------------------------------------ loop

    def _run(self) -> Generator:
        while True:
            yield self.interval_ps
            yield from self.controller.drain_retargets()
            if self.migrations >= self.spec.max_migrations:
                continue
            yield from self._tick()

    def _tick(self) -> Generator:
        ctrl = self.controller
        load = {t: ctrl._tile_load.get(t, 0) for t in self.tiles}
        healthy = [t for t in self.tiles if t not in ctrl.quarantined]
        if not healthy:
            return
        if self.spec.evacuate_quarantined:
            for tile in sorted(ctrl.quarantined):
                if tile not in load:
                    continue
                for act_id in self._residents(tile):
                    target = min(healthy, key=lambda t: (load[t], t))
                    moved = yield from self._try_migrate(act_id, target)
                    if moved:
                        load[target] += 1
                    if self.migrations >= self.spec.max_migrations:
                        return
        hot = max(healthy, key=lambda t: (load[t], -t))
        cool = min(healthy, key=lambda t: (load[t], t))
        if (load[hot] < self.spec.hot_depth
                or load[hot] - load[cool] < self.spec.spread):
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

"""Cross-tile causality checking.

In M³v, tiles affect each other only through DTU messages over the NoC,
and the fabric cannot deliver a packet across tiles in less than the
NoC's lookahead bound (:meth:`repro.noc.NocParams.lookahead_ps`) — two
link traversals (injection + ejection) of a header-only packet.  This
module turns that rule into a runtime check.

Every simulator event carries the tile of the context that created it
(``Event.home_tile``, scoped with ``Simulator.tile_scope``; ``NO_TILE``
for boot and driver code), and :class:`CausalityCheckedQueue` wraps the
serial event queue the run selected ("calendar" or "heap"):

* ``push`` raises :class:`CausalityError` on a push from one tile to
  another closer than the lookahead bound — it means some model code
  bypassed the NoC.  The REP004 lint rule flags the static shape of
  the same mistake.
* ``pop`` tallies events per tile (``sim.causality_stats``) and makes
  the popped event's tile the active one, so the events its callbacks
  create inherit it.

The check never reorders anything: pops come straight from the serial
queue, so traces, golden digests and event counts are identical with
it on or off (``tests/test_parallel_equivalence.py``).  See DESIGN.md
§15.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import NO_TILE, SimulationError

__all__ = [
    "CausalityCheckedQueue",
    "CausalityError",
    "CausalityStats",
]

#: Fallback lookahead when no NoC parameters are known (bare engine
#: workloads that opt into the check): one abstract time unit.
DEFAULT_LOOKAHEAD = 1


class CausalityError(SimulationError):
    """A cross-tile event was scheduled inside the lookahead bound.

    Nothing but the NoC may carry an effect from one tile to another,
    and the NoC cannot do it that fast — some model code bypassed it
    (see REP004).
    """


class CausalityStats:
    """Counters the causality-checked queue maintains (cheap; always on)."""

    __slots__ = ("events", "cross_pushes", "events_by_tile")

    def __init__(self) -> None:
        self.events = 0             # events popped
        self.cross_pushes = 0       # pushes from one tile to another
        self.events_by_tile: Dict[int, int] = {}


class CausalityCheckedQueue:
    """A serial event queue behind the push-time causality check.

    ``base`` (a calendar or heap queue) keeps all the ordering; this
    wrapper only looks at each push and pop, and tallies the pops per
    tile in :attr:`CausalityStats.events_by_tile`.
    """

    __slots__ = ("_q", "sim", "stats", "lookahead")

    def __init__(self, sim, base, lookahead: Optional[int] = None) -> None:
        self._q = base
        self.sim = sim
        self.stats = CausalityStats()
        self.lookahead = DEFAULT_LOOKAHEAD if lookahead is None else lookahead

    def __len__(self) -> int:
        return len(self._q)

    def push(self, when: int, event) -> None:
        sim = self.sim
        src = sim._active_tile
        dst = event.home_tile
        if src != dst and src != NO_TILE and dst != NO_TILE:
            self.stats.cross_pushes += 1
            if when < sim.now + self.lookahead:
                raise CausalityError(
                    f"event for tile {dst} scheduled at t={when} from "
                    f"tile {src} at t={sim.now}: inside the lookahead "
                    f"bound ({self.lookahead} ps); cross-tile effects "
                    f"must go through the NoC")
        self._q.push(when, event)

    def pop(self):
        when, event = self._q.pop()
        tile = event.home_tile
        self.sim._active_tile = tile
        stats = self.stats
        stats.events += 1
        by = stats.events_by_tile
        by[tile] = by.get(tile, 0) + 1
        return when, event

    def peek(self):
        return self._q.peek()

"""Cross-shard causality checking.

In M³v, tiles affect each other only through DTU messages over the NoC,
and the fabric cannot deliver a packet across tiles in less than the
NoC's lookahead bound (:meth:`repro.noc.NocParams.lookahead_ps`) — two
link traversals (injection + ejection) of a header-only packet.  This
module turns that rule into a runtime check.

The platform's tiles are partitioned into **shards** (:class:`ShardPlan`,
contiguous tile-id blocks).  Every simulator event carries the shard of
the context that created it (``Event.shard``, scoped with
``Simulator.shard_scope``), and :class:`CausalityCheckedQueue` wraps the
serial event queue the run selected ("calendar" or "heap"):

* ``push`` flags a push that crosses tile shards (the pushing context's
  shard differs from the event's) closer than the lookahead bound — it
  means some model code bypassed the NoC.  Such pushes are counted in
  :class:`ShardStats.violations`; with ``REPRO_SHARD_STRICT=1`` (or
  ``Simulator(shard_strict=True)``) they raise :class:`CausalityError`
  immediately.  The REP004 lint rule flags the static shape of the same
  mistake.
* ``pop`` tallies events per shard and makes the popped event's shard
  the active one, so the events its callbacks create inherit it.

The check never reorders anything: pops come straight from the serial
queue, so traces, golden digests and event counts are identical with
it on or off (``tests/test_parallel_equivalence.py``).  See DESIGN.md
§15.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.sim import envcfg
from repro.sim.engine import SimulationError

__all__ = [
    "GLOBAL_SHARD",
    "CausalityCheckedQueue",
    "CausalityError",
    "ShardPlan",
    "ShardStats",
    "partition_tiles",
    "shards_from_env",
    "strict_from_env",
]

#: Shard id of context not pinned to any tile: experiment driver
#: processes, boot-time setup, bare engine-level workloads.  Pushes to
#: or from it are never cross-shard.
GLOBAL_SHARD = -1

#: Fallback lookahead when no NoC parameters are known (bare engine
#: workloads that opt into the check): one abstract time unit.
DEFAULT_LOOKAHEAD = 1


class CausalityError(SimulationError):
    """A cross-shard event was scheduled inside the lookahead bound.

    Nothing but the NoC may carry an effect from one tile to another,
    and the NoC cannot do it that fast — some model code bypassed it
    (see REP004).
    """


def shards_from_env(default: int = 0) -> int:
    """Shard count requested via ``REPRO_SHARDS`` (0 = check off)."""
    raw = envcfg.raw("REPRO_SHARDS")
    if not raw:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise SimulationError(f"REPRO_SHARDS={raw!r} is not an integer") from None
    if n < 0:
        raise SimulationError(f"REPRO_SHARDS={n} is negative")
    return n


def strict_from_env(default: bool = False) -> bool:
    """Whether causality violations raise, from ``REPRO_SHARD_STRICT``."""
    raw = envcfg.raw("REPRO_SHARD_STRICT")
    if not raw:
        return default
    return raw not in ("0", "false", "no")


def partition_tiles(tile_ids: Sequence[int], n_shards: int) -> Dict[int, int]:
    """Deterministic tile → shard map of contiguous tile-id blocks.

    Neighbours in the star-mesh share routers, so blocks keep most links
    inside one shard.  A pure function of the sorted tile-id list.
    """
    tiles = sorted(tile_ids)
    if n_shards <= 0:
        raise SimulationError(f"n_shards must be positive, got {n_shards}")
    n_shards = min(n_shards, len(tiles)) or 1
    per = (len(tiles) + n_shards - 1) // n_shards
    return {tid: i // per for i, tid in enumerate(tiles)}


class ShardPlan:
    """Frozen description of one sharded run: tile map + lookahead."""

    __slots__ = ("n_shards", "tile_to_shard", "lookahead")

    def __init__(self, n_shards: int, tile_to_shard: Dict[int, int],
                 lookahead: int):
        self.n_shards = n_shards
        self.tile_to_shard = dict(tile_to_shard)
        self.lookahead = lookahead

    @classmethod
    def for_tiles(cls, tile_ids: Sequence[int], n_shards: int,
                  lookahead: int) -> "ShardPlan":
        mapping = partition_tiles(tile_ids, n_shards)
        real = max(mapping.values()) + 1 if mapping else 1
        return cls(real, mapping, lookahead)

    def shard_of(self, tile_id: int) -> int:
        return self.tile_to_shard.get(tile_id, GLOBAL_SHARD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardPlan {self.n_shards} shards "
                f"lookahead={self.lookahead}ps tiles={len(self.tile_to_shard)}>")


class ShardStats:
    """Counters the causality-checked queue maintains (cheap; always on)."""

    __slots__ = ("events", "cross_pushes", "violations", "events_by_shard")

    def __init__(self) -> None:
        self.events = 0             # events popped
        self.cross_pushes = 0       # pushes that crossed tile shards
        self.violations = 0         # cross-shard pushes inside lookahead
        self.events_by_shard: Dict[int, int] = {}

    def as_dict(self) -> Dict[str, int]:
        d = {s: getattr(self, s) for s in self.__slots__
             if s != "events_by_shard"}
        d["events_by_shard"] = dict(sorted(self.events_by_shard.items()))
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<ShardStats {inner}>"


class CausalityCheckedQueue:
    """A serial event queue behind the push-time causality check.

    ``base`` (a calendar or heap queue) keeps all the ordering; this
    wrapper only looks at each push and pop.  When the simulator has a
    metrics registry, the ``sim/shards/*`` counters are published as
    the events pass: ``sim/shards/<shard>/events`` per pop and
    ``sim/shards/violations`` (surfaced at 0 when the queue is built).
    """

    __slots__ = ("_q", "sim", "stats", "lookahead", "strict")

    def __init__(self, sim, base, lookahead: int = DEFAULT_LOOKAHEAD,
                 strict: bool = False) -> None:
        self._q = base
        self.sim = sim
        self.stats = ShardStats()
        self.lookahead = lookahead
        self.strict = strict
        if sim.metrics is not None:
            sim.metrics.inc("sim/shards/violations", 0)

    def __len__(self) -> int:
        return len(self._q)

    def push(self, when: int, event) -> None:
        sim = self.sim
        src = sim._active_shard
        shard = event.shard
        if src != shard and src != GLOBAL_SHARD and shard != GLOBAL_SHARD:
            self.stats.cross_pushes += 1
            if when < sim.now + self.lookahead:
                self._violation(shard, src, when, sim.now)
        self._q.push(when, event)

    def _violation(self, shard: int, src: int, when: int, now: int) -> None:
        self.stats.violations += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.inc("sim/shards/violations")
        if self.strict:
            raise CausalityError(
                f"event for shard {shard} scheduled at t={when} from "
                f"shard {src} at t={now}: inside the lookahead bound "
                f"({self.lookahead} ps); cross-shard effects must go "
                f"through the NoC")

    def pop(self):
        when, event = self._q.pop()
        shard = event.shard
        sim = self.sim
        sim._active_shard = shard
        stats = self.stats
        stats.events += 1
        by = stats.events_by_shard
        by[shard] = by.get(shard, 0) + 1
        metrics = sim.metrics
        if metrics is not None:
            metrics.inc(f"sim/shards/{shard}/events")
        return when, event

    def peek(self):
        return self._q.peek()

"""Deterministic execution tracing (opt-in).

A :class:`Tracer` collects typed :class:`TraceEvent` records from the
simulation kernel and the hardware/OS models.  Tracing is **off by
default**: every emit site guards on ``sim.tracer is not None``, so a
disabled tracer costs one attribute load per hook.

Events are routed by kind.  :meth:`Tracer.subscribe` takes an optional
set of ``kinds`` (``None``: every kind), and the tracer caches, per
kind, the subscribers it reaches.  A kind that nobody consumes — it is
excluded, or the tracer does not record and no subscriber wants it —
costs one dict lookup in :meth:`Tracer.emit`: no record is built and
no sequence number is taken.  The engine asks :meth:`Tracer.wants`
once per ``run`` call and stays on its plain drain loop unless someone
consumes ``evq_pop``.

With a tracer attached, the same seed and workload produce the same
event sequence —
the foundation of the golden-trace conformance tests
(:mod:`repro.testing.golden`) and the online invariant checkers
(:mod:`repro.testing.invariants`).

Event kinds and their fields (the trace schema)
-----------------------------------------------

===================  ======================================================
kind                 fields
===================  ======================================================
``evq_pop``          ``cls`` — class name of the popped simulator event
``noc_inject``       ``src, dst, pkt, size, pid`` — packet entered fabric
``noc_deliver``      ``src, dst, pkt, pid, qlen`` — packet accepted by the
                     destination tile's input queue (after backpressure)
``msg_send``         ``tile, ep, dst_tile, dst_ep, size, uid, reply``
``msg_bounce``       ``tile, uid, error`` — send failed at the receiver
``msg_deliver``      ``tile, ep, act, uid, unread`` — deposited into a
                     receive endpoint (``unread`` = count after deposit)
``msg_fetch``        ``tile, ep, act, uid, unread``
``msg_ack``          ``tile, ep, act, uid, unread, freed_unread``
``ep_install``       ``tile, ep, ep_kind, act, unread`` — endpoint (re)configured
                     (controller external interface or M3x restore)
``ep_use``           ``tile, ep, owner, cur_act`` — vDTU endpoint validated
                     for use by the current activity (section 3.5)
``cur_inc``          ``tile, act, cur`` — CUR_ACT unread count incremented
                     by a fast-path deposit (section 3.7)
``cur_dec``          ``tile, act, cur`` — CUR_ACT count decremented by FETCH
``core_req_enq``     ``tile, act, ep, qlen, cap`` — core request queued
``core_req_stall``   ``tile, qlen`` — queue full; deposit stalls the NoC
                     ejection port (section 3.8)
``core_req_ack``     ``tile, qlen`` — TileMux popped the head request
``core_req_route``   ``tile, act, to_cur, count`` — TileMux accounted the
                     request (``to_cur``: into live CUR_ACT vs. act.msgs)
``act_switch``       ``tile, old_act, old_msgs, new_act, new_msgs`` —
                     atomic CUR_ACT exchange (section 3.7)
``act_block``        ``tile, act`` — multiplexer committed a block
``act_wake``         ``tile, act, reason`` — blocked activity made ready
``act_exit``         ``tile, act`` — activity left the tile
``preempt``          ``tile, act`` — time-slice preemption
``tlb_fill``         ``tile, act, vpage, ppage``
``tlb_evict``        ``tile, act, vpage``
``pkt_drop``         ``src, dst, pkt, uid`` — fault injector swallowed a
                     packet (``uid`` is None for acknowledgements)
``pkt_corrupt``      ``src, dst, uid`` — payload corrupted on a link; the
                     receiver bounces it with ``PKT_CORRUPT``
``msg_dedup``        ``tile, ep, uid`` — retransmitted duplicate dropped
                     by the receive endpoint's sequence store
``msg_timeout``      ``tile, uid`` — no acknowledgement within the
                     recovery policy's ack-timeout window
``watchdog``         ``tile, act, slices`` — TileMux watchdog reported a
                     stuck activity to the controller
``tile_quarantine``  ``tile, faults`` — controller quarantined a tile
===================  ======================================================

``uid``, ``pid`` and activity-id values (``act``, ``owner``,
``cur_act``, ``old_act``, ``new_act``) come from process-global
counters, so they are unique but not stable across repeated runs in
one interpreter; the canonical serializer
(:func:`repro.testing.golden.canonical_json`) renumbers them by first
appearance (activity ids 0/``ACT_INVALID`` are reserved and kept).
"""

from __future__ import annotations

from collections import Counter as _KindCounter
from contextlib import contextmanager
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "capture", "install", "uninstall"]


class TraceEvent:
    """One typed trace record.

    ``seq`` is the tracer-local sequence number, ``ts`` the simulated
    time (picoseconds), ``sim`` the index of the emitting simulator
    (workloads may build several platforms), ``kind`` one of the schema
    kinds above and ``fields`` the kind-specific payload (JSON-safe
    scalars only).
    """

    __slots__ = ("seq", "ts", "sim", "kind", "fields")

    def __init__(self, seq: int, ts: int, sim: int, kind: str,
                 fields: Dict[str, Any]):
        self.seq = seq
        self.ts = ts
        self.sim = sim
        self.kind = kind
        self.fields = fields

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        d = {"seq": self.seq, "ts": self.ts, "sim": self.sim,
             "kind": self.kind}
        d.update(self.fields)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"<TraceEvent #{self.seq} t={self.ts} {self.kind} {inner}>"


class Tracer:
    """Collects trace events and dispatches them to subscribers.

    ``exclude`` filters event kinds at the source (``evq_pop`` is by far
    the noisiest; golden traces drop it).  ``record=False`` keeps no
    event list — useful when only online invariant checkers consume the
    stream and memory should stay flat; kinds that no subscriber wants
    are then dropped at the source, like excluded ones.
    """

    def __init__(self, exclude: Iterable[str] = (), record: bool = True):
        self.exclude = frozenset(exclude)
        self.record = record
        self.events: List[TraceEvent] = []
        self._subscribers: List[Tuple[Callable[[TraceEvent], None],
                                      Optional[FrozenSet[str]]]] = []
        # kind -> the callbacks it reaches, or None when the kind is
        # dropped at the source (excluded, or unrecorded and unwanted)
        self._routes: Dict[str, Optional[Tuple[Callable, ...]]] = {}
        self._seq = 0
        self._sims = 0

    # -- wiring ---------------------------------------------------------------

    def register_sim(self) -> int:
        """Called by each Simulator that picks this tracer up; returns
        the simulator's index within the trace."""
        sim_id = self._sims
        self._sims += 1
        return sim_id

    def attach(self, sim) -> "Tracer":
        """Explicitly attach to an already built simulator."""
        sim.tracer = self
        sim.trace_id = self.register_sim()
        return self

    def subscribe(self, callback: Callable[[TraceEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Deliver events to ``callback``: every kind (``kinds=None``)
        or only the listed ones."""
        self._subscribers.append(
            (callback, None if kinds is None else frozenset(kinds)))
        self._routes.clear()

    def _route(self, kind: str) -> Optional[Tuple[Callable, ...]]:
        route: Optional[Tuple[Callable, ...]] = tuple(
            cb for cb, want in self._subscribers
            if want is None or kind in want)
        if kind in self.exclude or not (route or self.record):
            route = None
        self._routes[kind] = route
        return route

    def wants(self, kind: str) -> bool:
        """Whether an event of ``kind`` would be recorded or delivered;
        when not, :meth:`emit` drops it before building a record."""
        if kind in self._routes:
            return self._routes[kind] is not None
        return self._route(kind) is not None

    # -- emission -------------------------------------------------------------

    def emit(self, sim, kind: str, **fields: Any) -> None:
        try:
            route = self._routes[kind]
        except KeyError:
            route = self._route(kind)
        if route is None:
            return
        event = TraceEvent(self._seq, sim.now, sim.trace_id, kind, fields)
        self._seq += 1
        if self.record:
            self.events.append(event)
        for callback in route:
            callback(event)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> Dict[str, int]:
        """Event counts by kind (for digests and quick looks)."""
        return dict(_KindCounter(ev.kind for ev in self.events))


# -- global installation ------------------------------------------------------
#
# Experiment entry points (fig6, fig8, ...) build their platforms
# internally; `install`/`capture` make every Simulator constructed while
# active pick up the tracer, without threading it through the builders.

def install(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the default for newly created Simulators."""
    from repro.sim import engine

    engine.set_default_tracer(tracer)
    return tracer


def uninstall() -> None:
    from repro.sim import engine

    engine.set_default_tracer(None)


@contextmanager
def capture(exclude: Iterable[str] = (), record: bool = True,
            tracer: Optional[Tracer] = None):
    """Context manager: trace every simulator built inside the block.

    >>> with capture(exclude=("evq_pop",)) as tracer:
    ...     Runner().run_sweep("fig6", fig6_points(iterations=10, warmup=2))
    >>> len(tracer.events)
    """
    tracer = tracer if tracer is not None else Tracer(exclude=exclude,
                                                      record=record)
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()

"""Online invariant checkers over execution traces.

Each checker subscribes to a :class:`repro.sim.trace.Tracer` and
verifies one system-wide property *continuously* while the simulation
runs, raising :class:`InvariantViolation` at the first offending event.
The checkers consume only trace events (never simulator internals), so
the same suite runs unchanged against M3v and M3x platforms — events a
system never emits make the corresponding checks vacuously true
(e.g. M3x has no ``cur_inc``).

The five properties (ISSUE: sections 3.5, 3.7, 3.8 of the paper):

* :class:`MessageConservation` — no message is lost or duplicated
  end-to-end: every ``msg_send`` uid is delivered, bounced, dropped by
  a fault injector, or discarded as a retransmit duplicate exactly
  once, and only delivered messages are fetched.
* :class:`CurActConsistency` — the unread count in ``CUR_ACT`` always
  equals deposited-minus-fetched: the register value read back by the
  atomic activity switch must match the balance of ``cur_inc`` /
  ``cur_dec`` / routed core requests since the previous switch.
* :class:`CoreReqQueueBound` — the vDTU core-request queue never
  exceeds its capacity, stalls only happen on a full queue, and the
  queue length evolves by exactly one per enqueue/ack.
* :class:`BlockedWakeup` — a blocked activity for which messages
  arrive is always woken (the lost-wakeup freedom of section 3.7).
* :class:`EndpointOwnership` — endpoints are only ever used by their
  owning activity (the isolation property of section 3.5).

Each checker declares the ``kinds`` its ``on_event`` branches on; the
suite subscribes with their union, so kinds no checker reads (above
all the engine's ``evq_pop``) are never built for it.

Usage::

    from repro.sim.trace import capture
    from repro.testing.invariants import InvariantSuite

    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        ...  # build platform, run workload, drain the simulation
    suite.finish()   # end-of-trace checks (e.g. messages in flight)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "InvariantViolation",
    "Invariant",
    "MessageConservation",
    "CurActConsistency",
    "CoreReqQueueBound",
    "BlockedWakeup",
    "EndpointOwnership",
    "ALL_INVARIANTS",
    "InvariantSuite",
]


class InvariantViolation(AssertionError):
    """A system-wide property was violated by the traced execution."""


class Invariant:
    """Base class: one property checked over the event stream.

    ``kinds`` lists exactly the event kinds :meth:`on_event` branches
    on; the suite routes only those to the checker.  ``None`` (the
    default) receives every kind.
    """

    name = "invariant"
    kinds: Optional[FrozenSet[str]] = None

    def on_event(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-trace checks (defaults to none)."""

    def fail(self, msg: str, ev: Optional[TraceEvent] = None) -> None:
        where = f" at {ev!r}" if ev is not None else ""
        raise InvariantViolation(f"[{self.name}] {msg}{where}")


class MessageConservation(Invariant):
    """Every sent message is delivered or bounced exactly once."""

    name = "msg-conservation"
    kinds = frozenset({"msg_send", "msg_deliver", "msg_bounce", "msg_fetch",
                       "pkt_drop", "msg_dedup"})

    def __init__(self) -> None:
        self.sent: Set[int] = set()
        self.delivered: Set[int] = set()
        self.bounced: Set[int] = set()
        self.dropped: Set[int] = set()   # swallowed by a fault injector
        self.deduped: Set[int] = set()   # retransmit duplicate, discarded

    def on_event(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind == "msg_send":
            uid = ev.get("uid")
            if uid in self.sent:
                self.fail(f"uid {uid} sent twice", ev)
            self.sent.add(uid)
        elif kind == "msg_deliver":
            uid = ev.get("uid")
            if uid not in self.sent:
                self.fail(f"uid {uid} delivered but never sent", ev)
            if uid in self.delivered:
                self.fail(f"uid {uid} delivered twice (duplicated)", ev)
            if uid in self.bounced:
                self.fail(f"uid {uid} delivered after bouncing", ev)
            self.delivered.add(uid)
        elif kind == "msg_bounce":
            uid = ev.get("uid")
            if uid not in self.sent:
                self.fail(f"uid {uid} bounced but never sent", ev)
            if uid in self.delivered:
                self.fail(f"uid {uid} bounced after delivery", ev)
            if uid in self.bounced:
                self.fail(f"uid {uid} bounced twice", ev)
            self.bounced.add(uid)
        elif kind == "msg_fetch":
            uid = ev.get("uid")
            if uid is None:
                return  # deposited out-of-band (M3x snapshot slow path)
            if uid not in self.delivered:
                self.fail(f"uid {uid} fetched but never delivered", ev)
        elif kind == "pkt_drop":
            uid = ev.get("uid")
            if uid is None:
                return  # a dropped acknowledgement, not a message
            if uid in self.delivered:
                self.fail(f"uid {uid} dropped after delivery", ev)
            if uid in self.dropped:
                self.fail(f"uid {uid} dropped twice", ev)
            self.dropped.add(uid)
        elif kind == "msg_dedup":
            uid = ev.get("uid")
            if uid not in self.sent:
                self.fail(f"uid {uid} deduplicated but never sent", ev)
            if uid in self.delivered:
                self.fail(f"uid {uid} both delivered and deduplicated", ev)
            self.deduped.add(uid)

    def finish(self) -> None:
        lost = (self.sent - self.delivered - self.bounced
                - self.dropped - self.deduped)
        if lost:
            sample = sorted(lost)[:5]
            self.fail(f"{len(lost)} message(s) lost in flight "
                      f"(uids {sample}{'...' if len(lost) > 5 else ''})")


class CurActConsistency(Invariant):
    """CUR_ACT's unread count equals deposited-minus-fetched.

    Maintains a shadow of the counter per (sim, tile) from the deposit
    (``cur_inc``, routed core requests) and fetch (``cur_dec``) events
    and cross-checks it against every value the hardware reports — in
    particular the old count read back by the atomic switch.
    """

    name = "cur-act"
    kinds = frozenset({"act_switch", "cur_inc", "cur_dec", "core_req_route"})

    def __init__(self) -> None:
        self.cur: Dict[Tuple[int, int], int] = {}

    def _key(self, ev: TraceEvent) -> Tuple[int, int]:
        return (ev.sim, ev.get("tile"))

    def on_event(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind == "act_switch":
            key = self._key(ev)
            shadow = self.cur.get(key)
            if shadow is not None and shadow != ev.get("old_msgs"):
                self.fail(f"tile {key[1]}: switch read CUR_ACT count "
                          f"{ev.get('old_msgs')}, but deposited-minus-"
                          f"fetched is {shadow}", ev)
            self.cur[key] = ev.get("new_msgs")
        elif kind == "cur_inc":
            key = self._key(ev)
            shadow = self.cur.get(key, 0)
            if ev.get("cur") != shadow + 1:
                self.fail(f"tile {key[1]}: deposit reported count "
                          f"{ev.get('cur')}, expected {shadow + 1}", ev)
            self.cur[key] = ev.get("cur")
        elif kind == "cur_dec":
            key = self._key(ev)
            shadow = self.cur.get(key, 0)
            if ev.get("cur") != shadow - 1:
                self.fail(f"tile {key[1]}: fetch reported count "
                          f"{ev.get('cur')}, expected {shadow - 1}", ev)
            self.cur[key] = ev.get("cur")
        elif kind == "core_req_route" and ev.get("to_cur"):
            # TileMux accounted a raced deposit into the live register
            key = self._key(ev)
            shadow = self.cur.get(key, 0)
            if ev.get("count") != shadow + 1:
                self.fail(f"tile {key[1]}: routed-to-CUR count "
                          f"{ev.get('count')}, expected {shadow + 1}", ev)
            self.cur[key] = ev.get("count")


class CoreReqQueueBound(Invariant):
    """The core-request queue never exceeds its capacity (section 3.8)."""

    name = "core-req-bound"
    kinds = frozenset({"core_req_enq", "core_req_ack", "core_req_stall"})

    def __init__(self) -> None:
        self.qlen: Dict[Tuple[int, int], int] = {}
        self.cap: Dict[Tuple[int, int], int] = {}

    def _key(self, ev: TraceEvent) -> Tuple[int, int]:
        return (ev.sim, ev.get("tile"))

    def on_event(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind == "core_req_enq":
            key = self._key(ev)
            cap = ev.get("cap")
            self.cap[key] = cap
            if ev.get("qlen") > cap:
                self.fail(f"tile {key[1]}: queue length {ev.get('qlen')} "
                          f"exceeds capacity {cap}", ev)
            shadow = self.qlen.get(key, 0)
            if ev.get("qlen") != shadow + 1:
                self.fail(f"tile {key[1]}: enqueue to length "
                          f"{ev.get('qlen')}, expected {shadow + 1}", ev)
            self.qlen[key] = ev.get("qlen")
        elif kind == "core_req_ack":
            key = self._key(ev)
            shadow = self.qlen.get(key)
            if shadow is not None and ev.get("qlen") != shadow - 1:
                self.fail(f"tile {key[1]}: ack to length {ev.get('qlen')}, "
                          f"expected {shadow - 1}", ev)
            self.qlen[key] = ev.get("qlen")
        elif kind == "core_req_stall":
            key = self._key(ev)
            cap = self.cap.get(key)
            if cap is not None and ev.get("qlen") < cap:
                self.fail(f"tile {key[1]}: stalled with queue length "
                          f"{ev.get('qlen')} < capacity {cap}", ev)


class BlockedWakeup(Invariant):
    """A blocked activity with pending messages is eventually woken.

    Tracks blocked activities from ``act_block``/``act_wake`` and marks
    them *pending* when a message arrives for them (a routed core
    request, a deposit counted into their live ``CUR_ACT``, or a direct
    endpoint delivery).  At the end of the trace, no activity may
    remain blocked with pending messages — the lost wakeup the atomic
    switch of section 3.7 exists to prevent.
    """

    name = "blocked-wakeup"
    kinds = frozenset({"act_block", "act_wake", "act_exit", "act_switch",
                       "core_req_route", "cur_inc", "msg_deliver"})

    def __init__(self) -> None:
        # (sim, tile, act) -> seq of the act_block event
        self.blocked: Dict[Tuple[int, int, int], int] = {}
        self.pending: Dict[Tuple[int, int, int], int] = {}

    def on_event(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind == "act_block":
            key = (ev.sim, ev.get("tile"), ev.get("act"))
            self.blocked[key] = ev.seq
            self.pending.pop(key, None)
        elif kind in ("act_wake", "act_exit"):
            key = (ev.sim, ev.get("tile"), ev.get("act"))
            self.blocked.pop(key, None)
            self.pending.pop(key, None)
        elif kind == "act_switch":
            # the new activity is running, hence not blocked
            key = (ev.sim, ev.get("tile"), ev.get("new_act"))
            self.blocked.pop(key, None)
            self.pending.pop(key, None)
        elif kind in ("core_req_route", "cur_inc", "msg_deliver"):
            key = (ev.sim, ev.get("tile"), ev.get("act"))
            if key in self.blocked:
                self.pending[key] = ev.seq

    def finish(self) -> None:
        stuck = {k: s for k, s in self.pending.items() if k in self.blocked}
        if stuck:
            (sim, tile, act), seq = sorted(stuck.items())[0]
            self.fail(f"activity {act} on tile {tile} (sim {sim}) stayed "
                      f"blocked although a message arrived (event #{seq}) — "
                      f"lost wakeup")


class EndpointOwnership(Invariant):
    """Endpoints are only used by their owning activity (section 3.5)."""

    name = "ep-ownership"
    kinds = frozenset({"ep_use"})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "ep_use" and ev.get("owner") != ev.get("cur_act"):
            self.fail(f"tile {ev.get('tile')}: activity {ev.get('cur_act')} "
                      f"used endpoint {ev.get('ep')} owned by "
                      f"{ev.get('owner')}", ev)


ALL_INVARIANTS: Tuple[Type[Invariant], ...] = (
    MessageConservation,
    CurActConsistency,
    CoreReqQueueBound,
    BlockedWakeup,
    EndpointOwnership,
)


class InvariantSuite:
    """Runs a set of invariant checkers against one tracer.

    Each event reaches only the checkers whose ``kinds`` name it (plus
    any that declare ``kinds = None``), and the tracer delivers only
    the union of those kinds, so ``seen`` counts routed events.
    """

    def __init__(self,
                 checkers: Optional[Iterable[Type[Invariant]]] = None):
        self.checkers: List[Invariant] = [
            cls() for cls in (checkers if checkers is not None
                              else ALL_INVARIANTS)]
        self.seen = 0
        self._every = tuple(c.on_event for c in self.checkers
                            if c.kinds is None)
        declared = sorted({kind for c in self.checkers if c.kinds is not None
                           for kind in c.kinds})
        # checker order is kept per kind: the first violation raised
        # is the same one an unrouted fan-out would raise
        self._dispatch = {
            kind: tuple(c.on_event for c in self.checkers
                        if c.kinds is None or kind in c.kinds)
            for kind in declared}

    def attach(self, tracer: Tracer) -> "InvariantSuite":
        tracer.subscribe(self.on_event,
                         None if self._every else list(self._dispatch))
        return self

    def on_event(self, ev: TraceEvent) -> None:
        self.seen += 1
        for on_event in self._dispatch.get(ev.kind, self._every):
            on_event(ev)

    def finish(self) -> None:
        """Run end-of-trace checks; call after the simulation drained."""
        for checker in self.checkers:
            checker.finish()

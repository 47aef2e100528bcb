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

Each checker declares a table mapping each event kind it checks to the
method that checks it (``handlers``; its ``kinds`` are the table's
keys).  The suite maps each kind straight to those methods and
subscribes with the union of the tables, so kinds no checker reads
(above all the engine's ``evq_pop``) are never built for it.

Usage::

    from repro.sim.trace import capture
    from repro.testing.invariants import InvariantSuite

    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        ...  # build platform, run workload, drain the simulation
    suite.finish()   # end-of-trace checks (e.g. messages in flight)
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

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

    A checker declares ``handlers``, a table mapping each event kind it
    checks to the method that checks it (``handler(self, ev)``); the
    suite routes each kind straight to those methods, and ``kinds`` is
    the table's keys, derived when the class is created.  A checker
    without a table (``handlers = None``, the default) receives every
    kind through :meth:`on_event`.
    """

    name = "invariant"
    handlers: Optional[Dict[str, Callable[..., None]]] = None
    kinds: Optional[FrozenSet[str]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "handlers" in cls.__dict__ and cls.handlers is not None:
            cls.kinds = frozenset(cls.handlers)

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

    def __init__(self) -> None:
        self.sent: Set[int] = set()
        self.delivered: Set[int] = set()
        self.bounced: Set[int] = set()
        self.dropped: Set[int] = set()   # swallowed by a fault injector
        self.deduped: Set[int] = set()   # retransmit duplicate, discarded

    def _send(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid in self.sent:
            self.fail(f"uid {uid} sent twice", ev)
        self.sent.add(uid)

    def _deliver(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid not in self.sent:
            self.fail(f"uid {uid} delivered but never sent", ev)
        if uid in self.delivered:
            self.fail(f"uid {uid} delivered twice (duplicated)", ev)
        if uid in self.bounced:
            self.fail(f"uid {uid} delivered after bouncing", ev)
        self.delivered.add(uid)

    def _bounce(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid not in self.sent:
            self.fail(f"uid {uid} bounced but never sent", ev)
        if uid in self.delivered:
            self.fail(f"uid {uid} bounced after delivery", ev)
        if uid in self.bounced:
            self.fail(f"uid {uid} bounced twice", ev)
        self.bounced.add(uid)

    def _fetch(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid is None:
            return  # deposited out-of-band (M3x snapshot slow path)
        if uid not in self.delivered:
            self.fail(f"uid {uid} fetched but never delivered", ev)

    def _drop(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid is None:
            return  # a dropped acknowledgement, not a message
        if uid in self.delivered:
            self.fail(f"uid {uid} dropped after delivery", ev)
        if uid in self.dropped:
            self.fail(f"uid {uid} dropped twice", ev)
        self.dropped.add(uid)

    def _dedup(self, ev: TraceEvent) -> None:
        uid = ev.fields["uid"]
        if uid not in self.sent:
            self.fail(f"uid {uid} deduplicated but never sent", ev)
        if uid in self.delivered:
            self.fail(f"uid {uid} both delivered and deduplicated", ev)
        self.deduped.add(uid)

    handlers = {"msg_send": _send, "msg_deliver": _deliver,
                "msg_bounce": _bounce, "msg_fetch": _fetch,
                "pkt_drop": _drop, "msg_dedup": _dedup}

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

    def __init__(self) -> None:
        self.cur: Dict[Tuple[int, int], int] = {}

    def _switch(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        shadow = self.cur.get(key)
        if shadow is not None and shadow != fields["old_msgs"]:
            self.fail(f"tile {key[1]}: switch read CUR_ACT count "
                      f"{fields['old_msgs']}, but deposited-minus-"
                      f"fetched is {shadow}", ev)
        self.cur[key] = fields["new_msgs"]

    def _inc(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        shadow = self.cur.get(key, 0)
        cur = fields["cur"]
        if cur != shadow + 1:
            self.fail(f"tile {key[1]}: deposit reported count "
                      f"{cur}, expected {shadow + 1}", ev)
        self.cur[key] = cur

    def _dec(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        shadow = self.cur.get(key, 0)
        cur = fields["cur"]
        if cur != shadow - 1:
            self.fail(f"tile {key[1]}: fetch reported count "
                      f"{cur}, expected {shadow - 1}", ev)
        self.cur[key] = cur

    def _route(self, ev: TraceEvent) -> None:
        fields = ev.fields
        if not fields["to_cur"]:
            return
        # TileMux accounted a raced deposit into the live register
        key = (ev.sim, fields["tile"])
        shadow = self.cur.get(key, 0)
        count = fields["count"]
        if count != shadow + 1:
            self.fail(f"tile {key[1]}: routed-to-CUR count "
                      f"{count}, expected {shadow + 1}", ev)
        self.cur[key] = count

    handlers = {"act_switch": _switch, "cur_inc": _inc, "cur_dec": _dec,
                "core_req_route": _route}


class CoreReqQueueBound(Invariant):
    """The core-request queue never exceeds its capacity (section 3.8)."""

    name = "core-req-bound"

    def __init__(self) -> None:
        self.qlen: Dict[Tuple[int, int], int] = {}
        self.cap: Dict[Tuple[int, int], int] = {}

    def _enqueue(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        cap = fields["cap"]
        qlen = fields["qlen"]
        self.cap[key] = cap
        if qlen > cap:
            self.fail(f"tile {key[1]}: queue length {qlen} "
                      f"exceeds capacity {cap}", ev)
        shadow = self.qlen.get(key, 0)
        if qlen != shadow + 1:
            self.fail(f"tile {key[1]}: enqueue to length "
                      f"{qlen}, expected {shadow + 1}", ev)
        self.qlen[key] = qlen

    def _ack(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        qlen = fields["qlen"]
        shadow = self.qlen.get(key)
        if shadow is not None and qlen != shadow - 1:
            self.fail(f"tile {key[1]}: ack to length {qlen}, "
                      f"expected {shadow - 1}", ev)
        self.qlen[key] = qlen

    def _stall(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"])
        cap = self.cap.get(key)
        if cap is not None and fields["qlen"] < cap:
            self.fail(f"tile {key[1]}: stalled with queue length "
                      f"{fields['qlen']} < capacity {cap}", ev)

    handlers = {"core_req_enq": _enqueue, "core_req_ack": _ack,
                "core_req_stall": _stall}


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

    def __init__(self) -> None:
        # (sim, tile, act) -> seq of the act_block event
        self.blocked: Dict[Tuple[int, int, int], int] = {}
        self.pending: Dict[Tuple[int, int, int], int] = {}

    def _block(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"], fields["act"])
        self.blocked[key] = ev.seq
        self.pending.pop(key, None)

    def _unblock(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"], fields["act"])
        self.blocked.pop(key, None)
        self.pending.pop(key, None)

    def _switch(self, ev: TraceEvent) -> None:
        # the new activity is running, hence not blocked
        fields = ev.fields
        key = (ev.sim, fields["tile"], fields["new_act"])
        self.blocked.pop(key, None)
        self.pending.pop(key, None)

    def _arrival(self, ev: TraceEvent) -> None:
        fields = ev.fields
        key = (ev.sim, fields["tile"], fields["act"])
        if key in self.blocked:
            self.pending[key] = ev.seq

    handlers = {"act_block": _block, "act_wake": _unblock,
                "act_exit": _unblock, "act_switch": _switch,
                "core_req_route": _arrival, "cur_inc": _arrival,
                "msg_deliver": _arrival}

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

    def _use(self, ev: TraceEvent) -> None:
        fields = ev.fields
        if fields["owner"] != fields["cur_act"]:
            self.fail(f"tile {fields['tile']}: activity {fields['cur_act']} "
                      f"used endpoint {fields['ep']} owned by "
                      f"{fields['owner']}", ev)

    handlers = {"ep_use": _use}


ALL_INVARIANTS: Tuple[Type[Invariant], ...] = (
    MessageConservation,
    CurActConsistency,
    CoreReqQueueBound,
    BlockedWakeup,
    EndpointOwnership,
)


class InvariantSuite:
    """Runs a set of invariant checkers against one tracer.

    Each event kind maps straight to the handlers that check it, in
    checker order, so the first violation raised is the one a fan-out
    to every checker would raise; a checker without a handler table
    gets every kind through ``on_event``.  The tracer delivers only the
    kinds some handler checks (every kind if such a checker is
    present), so ``seen`` counts routed events.
    """

    def __init__(self,
                 checkers: Optional[Iterable[Type[Invariant]]] = None):
        self.checkers: List[Invariant] = [
            cls() for cls in (checkers if checkers is not None
                              else ALL_INVARIANTS)]
        self.seen = 0
        self._every = tuple(c.on_event for c in self.checkers
                            if c.handlers is None)
        declared = sorted({kind for c in self.checkers if c.handlers
                           for kind in c.handlers})
        self._dispatch: Dict[str, Tuple[Callable[[TraceEvent], None], ...]] = {
            kind: tuple(c.on_event if c.handlers is None
                        else MethodType(c.handlers[kind], c)
                        for c in self.checkers
                        if c.handlers is None or kind in c.handlers)
            for kind in declared}

    def attach(self, tracer: Tracer) -> "InvariantSuite":
        tracer.subscribe(self.on_event,
                         None if self._every else list(self._dispatch))
        return self

    def on_event(self, ev: TraceEvent) -> None:
        self.seen += 1
        for handler in self._dispatch.get(ev.kind, self._every):
            handler(ev)

    def finish(self) -> None:
        """Run end-of-trace checks; call after the simulation drained."""
        for checker in self.checkers:
            checker.finish()

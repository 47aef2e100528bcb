"""The discrete-event simulation kernel.

The design mirrors simpy's condition-free core: a :class:`Simulator` owns
a queue of triggered events; a :class:`Process` wraps a Python generator
and advances it each time an event it waited on fires.

Time is a plain integer (we use picoseconds-free abstract "cycles" or
nanoseconds depending on the embedding; the engine does not care).

Scheduler
---------

Two event-queue implementations share one contract (pop strictly by
timestamp, FIFO among events scheduled for the same instant):

* :class:`CalendarEventQueue` (default) — a calendar queue: a dict
  mapping each distinct timestamp to a list of events in enqueue order,
  plus a min-heap of the distinct timestamps.  Platform workloads
  schedule many events per instant (MMIO charges, DMA completions and
  NoC hops all quantize to the same picosecond grid), so the heap
  shrinks from one entry per *event* to one entry per *distinct time*,
  and no ``(time, seq, event)`` tuple is allocated per enqueue.
* :class:`HeapEventQueue` — the original global ``heapq`` ordered by
  ``(time, seq)`` with a monotone sequence counter.  Kept as the
  reference implementation for differential testing
  (``tests/test_engine_equivalence.py``).

Both produce the same pop order: the sequence counter is assigned in
enqueue order, so within one timestamp the heap's seq order equals the
calendar bucket's append order.  This tie-order invariant is what keeps
the committed golden trace digests byte-identical across schedulers
(DESIGN.md section 13).

Select with ``Simulator(scheduler="heap")`` or
:func:`set_default_scheduler`.

Fast paths
----------

* A process may ``yield <int>`` to sleep that many time units: the
  engine reuses one pre-allocated per-process tick event instead of
  constructing a :class:`Timeout` per sleep.  ``yield None`` is the
  ``yield 0`` cooperative yield.  Both consume exactly one queue entry
  at the same instant as the equivalent ``yield sim.timeout(n)``, so
  traces are unchanged.
* ``run`` and ``run_until_event`` share two drain loops, each taking a
  stop event (``run`` passes one that never triggers) and a time
  limit; which one runs is decided once per *run call*.  The *plain*
  loop inlines the calendar queue and touches no hook.  It runs when
  tracer, metrics and profiler are all ``None`` (the default) and the
  queue is a bare :class:`CalendarEventQueue`.  A tracer whose
  consumers do not read ``evq_pop``
  (:meth:`repro.sim.trace.Tracer.wants`) counts as off here: its other
  kinds are emitted by the models, not the loop.  The *hooked* loop
  works against any queue through ``peek``/``pop``, with the hook
  objects hoisted into locals; it also drives the cross-tile
  causality check's queue (:mod:`repro.sim.parallel`).
* Tick continuation: under the plain drain loop, a step resumed by the
  process's own tick that sleeps to a time strictly before every queued
  event (not past the run's limit, its stop event still pending) is
  taken at once by :meth:`Process._resume`: it sets ``now``, counts the
  event and resumes the generator again, with no push and no pop.  That
  tick would have been the next event popped, with no other callback,
  so the event order and count are unchanged.  The hooked loop never
  continues: its consumers see every pop.
* :meth:`Simulator.timer` calls a function after a delay in exactly the
  queue position of a process that yields the delay and then makes the
  call (:class:`Timer`), without the process's generator, name string
  or completion event.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from time import perf_counter as _perf_counter
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim import envcfg
from repro.sim.stats import StatRegistry

#: The tile of context that belongs to no tile: boot code, experiment
#: drivers, bare engine workloads.  Pushes to or from it are never
#: cross-tile.
NO_TILE = -1


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


# Event state markers
_PENDING = object()

# Default tracer picked up by newly constructed Simulators (see
# repro.sim.trace).  None keeps tracing entirely off: the only cost is
# one attribute load + None check per emit site.
_default_tracer = None


def set_default_tracer(tracer) -> None:
    """Install (or clear, with None) the tracer for new Simulators."""
    global _default_tracer
    _default_tracer = tracer


# Default metrics registry / self-profiler, same contract as the tracer:
# picked up by newly constructed Simulators, None keeps the hooks free
# (see repro.obs).
_default_metrics = None
_default_profiler = None


def set_default_metrics(metrics) -> None:
    """Install (or clear, with None) the metrics registry for new
    Simulators; each registers itself with it (``metrics.meter``)."""
    global _default_metrics
    _default_metrics = metrics


def set_default_profiler(profiler) -> None:
    """Install (or clear, with None) the self-profiler for new
    Simulators."""
    global _default_profiler
    _default_profiler = profiler


# Process-global count of events processed across all simulators; the
# benchmark's worker (bench/worker.py) and the tier-1 event-count pins
# read deltas of this without installing any per-step hook.
_events_processed = 0


def events_processed() -> int:
    """Total simulator events processed in this interpreter."""
    return _events_processed


# -- event queues -------------------------------------------------------------

class HeapEventQueue:
    """Reference scheduler: one ``(time, seq, event)`` heap entry per event.

    The monotone ``seq`` breaks same-time ties in enqueue order; this is
    the original implementation and the ground truth the calendar queue
    is differentially tested against.
    """

    __slots__ = ("_heap", "_seq")

    name = "heap"

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, "Event"]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: int, event: "Event") -> None:
        heapq.heappush(self._heap, (when, next(self._seq), event))

    def pop(self) -> Tuple[int, "Event"]:
        when, _, event = heapq.heappop(self._heap)
        return when, event

    def peek(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None


class CalendarEventQueue:
    """Calendar queue: per-timestamp buckets + a heap of distinct times.

    ``_buckets`` maps an absolute timestamp to the events scheduled for
    it — a bare event while the instant holds one (the common case:
    ~64% of fig9's timestamps are singletons), upgraded to a list in
    enqueue order on the first collision.  ``_times`` is a min-heap of
    the distinct timestamps present.  ``_head`` is the drain index into
    the minimum list bucket (only the minimum bucket is ever partially
    drained — events cannot be scheduled in the past, so earlier
    buckets cannot appear).  List buckets are removed lazily once
    drained, which keeps the queue coherent even if an event callback
    raises mid-bucket; singletons are removed eagerly at pop.
    """

    __slots__ = ("_buckets", "_times", "_head", "_len")

    name = "calendar"

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._times: List[int] = []
        self._head = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, when: int, event: "Event") -> None:
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = event
            heapq.heappush(self._times, when)
        elif type(bucket) is list:
            bucket.append(event)
        else:
            self._buckets[when] = [bucket, event]
        self._len += 1

    def pop(self) -> Tuple[int, "Event"]:
        times = self._times
        buckets = self._buckets
        while True:
            when = times[0]
            bucket = buckets[when]
            if type(bucket) is not list:
                del buckets[when]
                heapq.heappop(times)
                self._len -= 1
                return when, bucket
            head = self._head
            if head < len(bucket):
                self._head = head + 1
                self._len -= 1
                return when, bucket[head]
            # minimum bucket fully drained: retire it and look again
            del buckets[when]
            heapq.heappop(times)
            self._head = 0

    def peek(self) -> Optional[int]:
        times = self._times
        buckets = self._buckets
        while times:
            when = times[0]
            bucket = buckets[when]
            if type(bucket) is not list or self._head < len(bucket):
                return when
            del buckets[when]
            heapq.heappop(times)
            self._head = 0
        return None


_SCHEDULERS = {"calendar": CalendarEventQueue, "heap": HeapEventQueue}

DEFAULT_SCHEDULER = "calendar"
_default_scheduler = DEFAULT_SCHEDULER


def set_default_scheduler(name: Optional[str]) -> None:
    """Select the event queue for new Simulators ("calendar" or "heap").

    ``None`` restores the built-in default ("calendar").
    """
    global _default_scheduler
    if name is None:
        name = DEFAULT_SCHEDULER
    if name not in _SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r} "
                         f"(choose from {sorted(_SCHEDULERS)})")
    _default_scheduler = name


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`.  Callbacks attached before the
    trigger run when the simulator pops the event off its queue.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "home_tile")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # None once the event was processed (the drain loops detach it)
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False
        # the tile this event belongs to: inherited from the creating
        # context (the event being executed, or an explicit
        # Simulator.tile_scope()); only the causality check reads it
        self.home_tile = sim._active_tile

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        sim = self.sim
        eq = sim._eq
        if eq.__class__ is CalendarEventQueue:
            # inlined CalendarEventQueue.push — succeed() is the hottest
            # scheduling entry point (every channel op and callback chain)
            when = sim.now + delay
            buckets = eq._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = self
                heapq.heappush(eq._times, when)
            elif bucket.__class__ is list:
                bucket.append(self)
            else:
                buckets[when] = [bucket, self]
            eq._len += 1
        else:
            eq.push(sim.now + delay, self)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If no
        process waits, the simulator raises it at the end of the step
        (unless :meth:`defuse` was called).
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._value = exception
        self._ok = False
        sim = self.sim
        sim._eq.push(sim.now + delay, self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay; created pre-triggered."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self._ok = True
        sim._eq.push(sim.now + delay, self)


class Process(Event):
    """Drives a generator; is itself an event that fires on termination.

    The generator may yield:

    * an :class:`Event` — the process resumes when it triggers, receiving
      its value (or having its exception raised inside the generator).
    * an ``int`` — sleep that many time units (equivalent to yielding
      ``sim.timeout(n)``, without allocating a Timeout).
    * ``None`` — the process resumes on the next simulator step (a
      cooperative yield at the current time).
    """

    __slots__ = ("gen", "name", "_tick", "_tick_cbs")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", None) or repr(gen)
        # bootstrap: resume on the next step via the reusable tick event
        tick = Event(sim)
        tick._value = None
        tick.callbacks.append(self._resume)
        self._tick = tick
        self._tick_cbs = tick.callbacks
        sim._eq.push(sim.now, tick)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- internal machinery -------------------------------------------------

    def _wait_on(self, event: Event) -> None:
        if event.callbacks is None:
            # already processed: schedule immediate resume
            kick = Event(self.sim)
            if event._ok:
                kick.succeed(event._value)
            else:
                event._defused = True
                kick.fail(event._value)
                kick.defuse()
            kick.callbacks.append(self._resume)
        else:
            event.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        global _events_processed
        sim = self.sim
        tick = self._tick
        # Tick continuation: while the plain drain loop runs, a step
        # resumed by this process's own tick that sleeps to a time
        # strictly before every queued event would be pushed and popped
        # straight back; take that step here instead.  Only the own tick
        # qualifies: a shared event may have further waiters still to run.
        drain = sim._plain_drain if event is tick else None
        if drain is not None:
            stop, limit, times = drain
        while True:
            try:
                if event._ok:
                    result = self.gen.send(event._value)
                else:
                    event._defused = True
                    result = self.gen.throw(event._value)
            except StopIteration as stop_iter:
                self.succeed(stop_iter.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if type(result) is int:
                if result < 0:
                    raise SimulationError(
                        f"process {self.name!r} yielded negative delay {result}")
                when = sim.now + result
            elif result is None:
                when = sim.now
            else:
                if not isinstance(result, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded {result!r}, "
                        f"expected Event, int or None"
                    )
                if result.sim is not sim:
                    raise SimulationError("yielded event belongs to another simulator")
                self._wait_on(result)
                return

            if (drain is not None and stop._value is _PENDING
                    and (not times or when < times[0])
                    and (limit is None or when <= limit)):
                # the tick would pop next: exactly what the drain loop
                # does for it, minus the push and the pop
                sim.now = when
                _events_processed += 1
                continue
            break

        # int / None fast path: sleep on the reusable tick event.  A
        # process waits on one event at a time, so the tick has left the
        # queue by now; its callback list survives pops untouched (the
        # drain loops detach it before running it).
        tick.callbacks = self._tick_cbs
        eq = sim._eq
        if eq.__class__ is CalendarEventQueue:
            # inlined CalendarEventQueue.push — every process tick lands here
            buckets = eq._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = tick
                heapq.heappush(eq._times, when)
            elif bucket.__class__ is list:
                bucket.append(tick)
            else:
                buckets[when] = [bucket, tick]
            eq._len += 1
        else:
            eq.push(when, tick)


class Timer:
    """A call ``delay`` time units after it was armed
    (:meth:`Simulator.timer`).

    It is ordered exactly like ``sim.process(gen)`` where ``gen`` yields
    ``delay`` and then makes the call.  One plain :class:`Event` plays
    the process's tick: pushed at ``now`` on arming (the bootstrap
    tick's place in the queue), and when it pops, pushed again at
    ``now + delay`` (the sleep tick's place); the second pop makes the
    call.  There is no generator, no ``StopIteration`` and no
    completion event, which nobody could wait on.  ``name`` is the
    owner the profilers bill the two callbacks to, as they bill a
    process by its name.
    """

    __slots__ = ("name", "_delay", "_callback", "_args", "_cbs")

    def __init__(self, sim: "Simulator", delay: int, name: str,
                 callback: Callable[..., None], args: tuple):
        if delay < 0:
            raise SimulationError(f"timer {name!r} got negative delay {delay}")
        self.name = name
        self._delay: Optional[int] = delay
        self._callback = callback
        self._args = args
        tick = Event(sim)
        tick._value = None
        self._cbs: List[Callable[[Event], None]] = [self._step]
        tick.callbacks = self._cbs
        sim._eq.push(sim.now, tick)

    def _step(self, tick: Event) -> None:
        delay = self._delay
        if delay is None:
            self._callback(*self._args)
            return
        # armed: queue the firing where the process's sleep tick would go
        self._delay = None
        tick.callbacks = self._cbs
        sim = tick.sim
        sim._eq.push(sim.now + delay, tick)


class _Never:
    """The stop event :meth:`Simulator.run` hands the drain loops: it
    never triggers."""

    __slots__ = ()
    _value = _PENDING


_NEVER = _Never()


class Simulator:
    """The event loop.  Owns simulated time, the pending-event queue
    and the counters of everything it simulates (``stats``, one
    :class:`~repro.sim.stats.StatRegistry`; components count into it,
    and a metrics registry reads it).

    ``check_causality=True`` wraps the queue in the cross-tile
    causality check (:mod:`repro.sim.parallel`): events carry the tile
    of the context that created them, and a push from one tile to
    another inside ``lookahead`` raises
    :class:`~repro.sim.parallel.CausalityError`.  ``None`` (the
    default) reads the ``REPRO_SHARDS`` switch, so any suite can be
    re-run checked without code changes.  The pop order stays the
    serial queue's — see DESIGN.md §15.
    """

    def __init__(self, start: int = 0, scheduler: Optional[str] = None,
                 check_causality: Optional[bool] = None,
                 lookahead: Optional[int] = None):
        self.now: int = start
        self.scheduler = scheduler or _default_scheduler
        if self.scheduler not in _SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {self.scheduler!r} "
                f"(choose from {sorted(_SCHEDULERS)})")
        self._active_tile: int = NO_TILE
        # (stop, limit, queue times) while the plain drain loop runs,
        # else None; Process._resume's tick continuation reads it
        self._plain_drain: Optional[tuple] = None
        self.tracer = _default_tracer
        self.trace_id = (_default_tracer.register_sim()
                         if _default_tracer is not None else 0)
        self.stats = StatRegistry()
        self.metrics = _default_metrics
        if _default_metrics is not None:
            _default_metrics.meter(self)
        self.profiler = _default_profiler
        self._eq = _SCHEDULERS[self.scheduler]()
        if check_causality is None:
            check_causality = envcfg.flag("REPRO_SHARDS")
        self.check_causality = check_causality
        if check_causality:
            from repro.sim.parallel import CausalityCheckedQueue

            self._eq = CausalityCheckedQueue(self, self._eq, lookahead)

    # -- tile affinity -------------------------------------------------------

    @contextmanager
    def tile_scope(self, tile: int):
        """Create events/processes as belonging to ``tile``.

        Platform assembly wraps each tile's construction in its own
        scope; the NoC fabric stamps arrival events with the destination
        tile.  Only the causality check reads the stamp.
        """
        prev = self._active_tile
        self._active_tile = tile
        try:
            yield self
        finally:
            self._active_tile = prev

    @property
    def causality_stats(self):
        """Causality-check counters, or None when the check is off."""
        return self._eq.stats if self.check_causality else None

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name)

    def timer(self, delay: int, name: str, callback: Callable[..., None],
              *args: Any) -> None:
        """Call ``callback(*args)`` ``delay`` time units from now, in
        the queue position a process yielding ``delay`` would have
        (:class:`Timer`); ``name`` is the owner profilers bill."""
        Timer(self, delay, name, callback, args)

    # -- scheduling ----------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} lies in the past (now={self.now})")
        self._drain(_NEVER, until)
        if until is not None:
            self.now = until

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        ``limit`` guards against runaway simulations.
        """
        if event._value is _PENDING:
            self._drain(event, limit)
            if event._value is _PENDING:
                if self._eq.peek() is None:
                    raise SimulationError(
                        "simulation starved before event triggered")
                raise SimulationError(f"event did not trigger before t={limit}")
        if not event._ok:
            event._defused = True
            raise event._value
        return event._value

    def _drain(self, stop, limit: Optional[int]) -> None:
        if ((self.tracer is None or not self.tracer.wants("evq_pop"))
                and self.metrics is None and self.profiler is None
                and type(self._eq) is CalendarEventQueue):
            self._run_plain(stop, limit)
        else:
            self._run_hooked(stop, limit)

    # -- drain loops ---------------------------------------------------------
    #
    # Two specializations of one loop.  Both process events until
    # ``stop`` triggers, the queue empties, or the next event lies past
    # ``limit``.  The *plain* loop runs with tracer/metrics/profiler all
    # None (or a tracer nobody reads evq_pop from) and a bare calendar
    # queue, inlining the queue internals; the *hooked* loop hoists the
    # hook objects into locals and works against any queue via
    # peek/pop.

    def _run_plain(self, stop, limit: Optional[int]) -> None:
        # The queue's _head/_len are only read by pop()/peek()/len(), none
        # of which can run while this loop owns the queue (hooks are off),
        # so both are maintained in locals and written back on exit.
        global _events_processed
        q = self._eq
        buckets = q._buckets
        times = q._times
        pop_time = heapq.heappop
        pending = _PENDING
        head = q._head
        n = 0
        self._plain_drain = (stop, limit, times)
        try:
            while stop._value is pending and times:
                when = times[0]
                bucket = buckets[when]
                if type(bucket) is not list:
                    if limit is not None and when > limit:
                        return
                    self.now = when
                    del buckets[when]
                    pop_time(times)
                    event = bucket
                    callbacks = event.callbacks
                    event.callbacks = None
                    n += 1
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    continue
                if head >= len(bucket):
                    del buckets[when]
                    pop_time(times)
                    head = 0
                    continue
                if limit is not None and when > limit:
                    return
                self.now = when
                while head < len(bucket):
                    event = bucket[head]
                    head += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    n += 1
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if stop._value is not pending:
                        return
                del buckets[when]
                pop_time(times)
                head = 0
        finally:
            self._plain_drain = None
            q._head = head
            q._len -= n
            _events_processed += n

    def _run_hooked(self, stop, limit: Optional[int]) -> None:
        global _events_processed
        q = self._eq
        tracer = self.tracer
        metrics = self.metrics
        profiler = self.profiler
        clock = _perf_counter  # repro: noqa[REP001] host-clock self-profiling
        pending = _PENDING
        n = 0
        try:
            while stop._value is pending:
                when = q.peek()
                if when is None or (limit is not None and when > limit):
                    return
                # the causality check's pop also switches _active_tile
                when, event = q.pop()
                self.now = when
                n += 1
                if tracer is not None:
                    tracer.emit(self, "evq_pop", cls=type(event).__name__)
                if metrics is not None:
                    metrics.on_step(self, event)
                callbacks, event.callbacks = event.callbacks, None
                if profiler is None:
                    for callback in callbacks:
                        callback(event)
                else:
                    profiler.on_step()
                    for callback in callbacks:
                        t0 = clock()
                        callback(event)
                        profiler.record(getattr(callback, "__self__", None),
                                        clock() - t0)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._active_tile = NO_TILE
            _events_processed += n

    @property
    def peek(self) -> Optional[int]:
        """Time of the next pending event, or None if the queue is empty."""
        return self._eq.peek()

"""Differential testing: calendar queue vs the reference heap scheduler.

The calendar event queue replaced the global heap as the default
scheduler for throughput; its contract is *exact* behavioral equality —
same pop order (FIFO within a timestamp), same process interleaving,
same traces.  These tests drive hypothesis-generated schedules through
both ``Simulator(scheduler="calendar")`` and ``scheduler="heap"`` and
assert the observable histories are identical, covering the cases where
a bucketed queue could plausibly diverge from a ``(time, seq)`` heap:

* many events colliding on one timestamp (FIFO tie-order),
* events succeeded/failed with and without delay, defused failures,
* reschedules: new events created for times already drained past,
  equal to ``now``, and far in the future,
* ``run(until=...)`` stopping between buckets.

The same scripts also compare the calendar queue's two drain loops: the
plain loop, where a process step resumed by its own tick may continue
without a queue round trip, and the hooked loop, which never continues.
Last, an engine timer (``Simulator.timer``) is run against the process
it stands for, one that sleeps and then makes the call: same history,
fewer events by exactly the completion events of the fired timers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Channel, Simulator, engine
from repro.sim.channel import ChannelClosed
from repro.sim.trace import Tracer, capture
from repro.testing.golden import canonical_json

SCHEDULERS = ("calendar", "heap")


# -- schedule scripts ---------------------------------------------------------
#
# A script is data, interpreted identically on every simulator: a list
# of per-process action lists.  Actions reference shared events and
# channels by index, so the generated program is scheduler-agnostic.

_ACTION = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 3)),         # int fast path
    st.tuples(st.just("timeout"), st.integers(0, 5)),       # Timeout event
    st.tuples(st.just("wait"), st.integers(0, 3)),          # shared event
    st.tuples(st.just("fire"), st.integers(0, 3),           # succeed(delay=d)
              st.integers(0, 4)),
    st.tuples(st.just("fail"), st.integers(0, 3),           # fail + defuse
              st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, 1)),           # channel put
    st.tuples(st.just("get"), st.integers(0, 1)),           # channel get
    st.tuples(st.just("timer"), st.integers(0, 5),          # arm a timer that
              st.integers(0, 3)),                           # fires event k
)

_SCRIPT = st.lists(st.lists(_ACTION, min_size=1, max_size=8),
                   min_size=2, max_size=6)


def _reference_timer(delay, callback, *args):
    """The process an engine timer stands for: sleep, then call."""
    yield delay
    callback(*args)


def _run_script(script, scheduler, check_causality=None, timers="engine"):
    """Interpret ``script``; return the observable history.  ``timers``
    arms each timer as an engine timer or as its reference process."""
    sim = Simulator(scheduler=scheduler, check_causality=check_causality)
    events = [sim.event() for _ in range(4)]
    chans = [Channel(sim, name=f"ch{i}") for i in range(2)]
    history = []

    def ring(pid, step, k):
        history.append((sim.now, pid, step, "rang"))
        if not events[k].triggered:
            events[k].succeed(("r", pid, step))

    def runner(pid, actions):
        for step, action in enumerate(actions):
            op = action[0]
            try:
                if op == "delay":
                    yield action[1]
                elif op == "timeout":
                    yield sim.timeout(action[1], value=("t", pid, step))
                elif op == "wait":
                    ev = events[action[1]]
                    if not ev.processed:
                        value = yield ev
                        history.append((sim.now, pid, step, "woke", value))
                elif op == "fire":
                    ev = events[action[1]]
                    if not ev.triggered:
                        ev.succeed(("v", pid, step), delay=action[2])
                elif op == "fail":
                    ev = events[action[1]]
                    if not ev.triggered:
                        ev.fail(RuntimeError(f"boom{pid}.{step}"),
                                delay=action[2])
                        ev.defuse()
                elif op == "put":
                    yield chans[action[1]].put((pid, step))
                elif op == "get":
                    got = chans[action[1]].try_get()
                    history.append((sim.now, pid, step, "got", got))
                elif op == "timer":
                    args = (ring, pid, step, action[2])
                    if timers == "engine":
                        sim.timer(action[1], "timer", *args)
                    else:
                        sim.process(_reference_timer(action[1], *args),
                                    name="timer")
            except ChannelClosed:
                history.append((sim.now, pid, step, "closed"))
            except RuntimeError as exc:
                history.append((sim.now, pid, step, "err", str(exc)))
            history.append((sim.now, pid, step, op))

    for pid, actions in enumerate(script):
        sim.process(runner(pid, actions), name=f"p{pid}")
    # an error stops the run at the same point on both schedulers, which
    # is exactly what we compare
    try:
        sim.run(until=200)
    except Exception as exc:
        # type only: messages can embed repr() addresses
        history.append(("run-error", type(exc).__name__))
    # wind down: release anything parked on a never-fired event/channel
    for ev in events:
        if not ev.triggered:
            ev.succeed(("flush",))
    for ch in chans:
        ch.close()
    try:
        sim.run(until=400)
    except Exception as exc:
        history.append(("tail-error", type(exc).__name__))
    return history, sim.now


@given(script=_SCRIPT)
@settings(max_examples=120, deadline=None)
def test_calendar_and_heap_pop_identical_histories(script):
    baseline = _run_script(script, "heap")
    assert _run_script(script, "calendar") == baseline


@given(script=_SCRIPT)
@settings(max_examples=30, deadline=None)
def test_calendar_and_heap_produce_identical_traces(script):
    blobs = []
    for scheduler in SCHEDULERS:
        with capture() as tracer:
            _run_script(script, scheduler)
        blobs.append(canonical_json(tracer))
    assert blobs[0] == blobs[1]


@given(delays=st.lists(st.integers(0, 2), min_size=5, max_size=40))
@settings(max_examples=60, deadline=None)
def test_same_timestamp_ties_pop_fifo(delays):
    """Heavy collisions: every pop order must match the reference."""
    orders = []
    for scheduler in SCHEDULERS:
        sim = Simulator(scheduler=scheduler)
        order = []
        for i, d in enumerate(delays):
            sim.event().succeed(i, delay=d).callbacks.append(
                lambda ev: order.append((sim.now, ev.value)))
        sim.run()
        orders.append(order)
    assert orders[0] == orders[1]
    # and within each timestamp, creation order is preserved
    by_time = {}
    for when, idx in orders[0]:
        by_time.setdefault(when, []).append(idx)
    for when, idxs in by_time.items():
        assert idxs == sorted(idxs), f"tie order broken at t={when}"


@given(until=st.integers(0, 30),
       delays=st.lists(st.integers(0, 25), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_run_until_stops_identically(until, delays):
    results = []
    for scheduler in SCHEDULERS:
        sim = Simulator(scheduler=scheduler)
        seen = []
        for i, d in enumerate(delays):
            sim.event().succeed(i, delay=d).callbacks.append(
                lambda ev: seen.append((sim.now, ev.value)))
        sim.run(until=until)
        results.append((seen, sim.now, sim.peek))
    assert results[0] == results[1]


# -- plain vs hooked drain loop (tick continuation) ----------------------------

LOOPS = ("plain", "hooked")


def _on_loop(loop, run):
    """``run()`` on the calendar queue's plain or hooked drain loop;
    returns its result and the engine events it processed.  A tracer
    subscribed to ``evq_pop`` forces the hooked loop."""
    before = engine.events_processed()
    if loop == "plain":
        result = run()
    else:
        tracer = Tracer(record=False)
        tracer.subscribe(lambda ev: None, kinds=("evq_pop",))
        with capture(tracer=tracer):
            result = run()
    return result, engine.events_processed() - before


def _script_on_loop(script, loop):
    return _on_loop(loop, lambda: _run_script(script, "calendar",
                                              check_causality=False))


@given(script=_SCRIPT)
@settings(max_examples=120, deadline=None)
def test_plain_and_hooked_loops_agree(script):
    """Same history, same final ``now``, same engine event count."""
    assert _script_on_loop(script, "plain") == _script_on_loop(script, "hooked")


def test_step_woken_by_a_shared_event_does_not_continue():
    """Regression: p0 and p1 both wait on event 0.  When it fires, p0's
    step yields 0 before p1's callback has run; continuing p0 there
    would run its next step ahead of p1's wake-up."""
    script = [[("wait", 0), ("delay", 0)], [("wait", 0)], [("fire", 0, 1)]]
    plain = _script_on_loop(script, "plain")
    assert plain == _script_on_loop(script, "hooked")
    history = plain[0][0]
    assert history.index((1, 1, 0, "wait")) < history.index((1, 0, 1, "delay"))


def _stepper(sim, steps, n, delay, fire=None, at=None):
    for i in range(n):
        steps.append(sim.now)
        if i == at:
            fire.succeed("stopped", delay=25)
        yield delay


@pytest.mark.parametrize("loop", LOOPS)
def test_run_until_event_returns_after_a_continued_step_fires_it(loop):
    def run():
        sim = Simulator(check_causality=False)
        stop = sim.event()
        steps = []
        sim.process(_stepper(sim, steps, 6, 10, fire=stop, at=2))
        value = sim.run_until_event(stop)
        cut = (value, sim.now, list(steps), sim.peek)
        sim.run()
        return cut, steps, sim.now

    (cut, steps, end), events = _on_loop(loop, run)
    # the step at t=20 triggers the stop event (queued for t=45) and
    # sleeps to t=30, before the stop event: the run still returns at
    # t=20, with that tick next in the queue
    assert cut == ("stopped", 20, [0, 10, 20], 30)
    assert steps == [0, 10, 20, 30, 40, 50] and end == 60
    # seven ticks (t = 0, 10, ..., 60), the stop event and the process's
    # own termination
    assert events == 9


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("until, done, peek", [(20, [0, 5, 10, 15, 20], 25),
                                               (24, [0, 5, 10, 15, 20], 25)])
def test_run_until_processes_a_tick_at_the_limit_not_past_it(loop, until,
                                                            done, peek):
    def run():
        sim = Simulator(check_causality=False)
        steps = []
        sim.process(_stepper(sim, steps, 10, 5))
        sim.run(until=until)
        return steps, sim.now, sim.peek

    (steps, now, next_tick), events = _on_loop(loop, run)
    assert (steps, now, next_tick) == (done, until, peek)
    assert events == len(done)  # one tick per step taken


# -- engine timer vs the process it stands for ---------------------------------

def _timer_run(script, config, timers):
    """``script`` with its timers armed as ``timers``, under ``config``:
    the plain or hooked drain loop, or the causality-checked queue."""
    if config == "checked":
        before = engine.events_processed()
        result = _run_script(script, "calendar", check_causality=True,
                             timers=timers)
        return result, engine.events_processed() - before
    return _on_loop(config, lambda: _run_script(
        script, "calendar", check_causality=False, timers=timers))


@pytest.mark.parametrize("config", ("plain", "hooked", "checked"))
@given(script=_SCRIPT)
@settings(max_examples=80, deadline=None)
def test_timer_orders_exactly_like_its_reference_process(config, script):
    """Same history and final ``now``; the only events that go away are
    the fired reference processes' completion events."""
    (timed, now), events = _timer_run(script, config, "engine")
    (reference, ref_now), ref_events = _timer_run(script, config, "process")
    assert (timed, now) == (reference, ref_now)
    fired = sum(1 for entry in timed if entry[3:] == ("rang",))
    assert ref_events - events == fired


def test_timer_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(engine.SimulationError):
        sim.timer(-1, "timer", print)

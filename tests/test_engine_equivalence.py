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
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Channel, Simulator
from repro.sim.channel import ChannelClosed
from repro.sim.trace import capture
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
)

_SCRIPT = st.lists(st.lists(_ACTION, min_size=1, max_size=8),
                   min_size=2, max_size=6)


def _run_script(script, scheduler):
    """Interpret ``script``; return the observable history."""
    sim = Simulator(scheduler=scheduler)
    events = [sim.event() for _ in range(4)]
    chans = [Channel(sim, name=f"ch{i}") for i in range(2)]
    history = []

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

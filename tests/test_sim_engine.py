"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, SimulationError, Timeout


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(10)
        done.append(sim.now)
        yield sim.timeout(5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [10, 15]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        got.append((yield sim.timeout(3, value="hello")))

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(30, "c"))
    sim.process(waiter(10, "a"))
    sim.process(waiter(20, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in range(8):
        sim.process(waiter(tag))
    sim.run()
    assert order == list(range(8))


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(7)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == [42]
    assert ev.value == 42 and ev.ok


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())

    def firer():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    sim.process(firer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_propagates():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("quiet"))
    ev.defuse()
    sim.run()  # does not raise


def test_process_return_value_propagates():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return 99

    results = []

    def outer():
        results.append((yield sim.process(inner())))

    sim.process(outer())
    sim.run()
    assert results == [99]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        raise KeyError("inner blew up")

    caught = []

    def outer():
        try:
            yield sim.process(inner())
        except KeyError:
            caught.append(True)

    sim.process(outer())
    sim.run()
    assert caught == [True]


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # processes ev
    got = []

    def late_waiter():
        got.append((yield ev))

    sim.process(late_waiter())
    sim.run()
    assert got == ["early"]


def test_yield_none_is_cooperative_yield():
    sim = Simulator()
    trace = []

    def proc(tag):
        for i in range(3):
            trace.append((tag, i, sim.now))
            yield None

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    # time never advances; both interleave at t=0
    assert all(t == 0 for (_, _, t) in trace)
    assert ("a", 2, 0) in trace and ("b", 2, 0) in trace


def test_yield_int_is_timeout_fast_path():
    sim = Simulator()
    done = []

    def proc():
        yield 10
        done.append(sim.now)
        yield 0
        done.append(sim.now)
        yield 5
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [10, 10, 15]


def test_yield_negative_int_raises():
    sim = Simulator()

    def bad():
        yield -3

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_garbage_raises():
    sim = Simulator()

    def bad():
        yield "not an event"  # repro: noqa[REP002] deliberately bad yield under test

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_int_interleaves_like_timeout():
    # int sleeps and Timeout sleeps must share one FIFO tie order
    sim = Simulator()
    order = []

    def via_int(tag):
        yield 5
        order.append(tag)

    def via_timeout(tag):
        yield sim.timeout(5)
        order.append(tag)

    sim.process(via_timeout("t0"))
    sim.process(via_int("i0"))
    sim.process(via_timeout("t1"))
    sim.process(via_int("i1"))
    sim.run()
    assert order == ["t0", "i0", "t1", "i1"]


def test_run_until_time_pauses_simulation():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(100)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=50)
    assert sim.now == 50 and fired == []
    sim.run()
    assert fired == [100]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        return "done"

    p = sim.process(proc())
    assert sim.run_until_event(p) == "done"


def test_run_until_event_starvation_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError, match="starved"):
        sim.run_until_event(ev)


def test_run_until_event_limit_enforced():
    sim = Simulator()

    def proc():
        yield sim.timeout(1000)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="did not trigger"):
        sim.run_until_event(p, limit=100)


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(42)
    assert sim.peek == 42

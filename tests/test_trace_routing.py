"""Kind-routed trace delivery.

The tracer routes each event kind only to the subscribers that want it,
and drops a kind nobody consumes before building a record.  These tests
pin the contract between its three parties: ``Tracer.subscribe(kinds=)``,
the engine's choice of drain loop (``Tracer.wants("evq_pop")``), and the
invariant suite's per-checker handler tables.  A last test guards the
declarations themselves: each checker's ``kinds`` must be exactly the
kinds its table handles, so the routing is declared once.
"""

import pytest

from repro.api import SystemConfig, build_system
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer, capture
from repro.testing.invariants import (
    ALL_INVARIANTS,
    Invariant,
    InvariantSuite,
    MessageConservation,
)

LOOPS = ("_run_plain", "_run_hooked")


@pytest.fixture(autouse=True)
def serial_calendar_engine(monkeypatch):
    """The drain-loop choice under test is the serial calendar engine's;
    suites re-run checked or on the heap queue must not change it."""
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.setattr(engine, "_default_scheduler", "calendar")


@pytest.fixture
def loops(monkeypatch):
    """Records the name of every drain loop a run call takes."""
    taken = []
    for name in LOOPS:
        original = getattr(Simulator, name)

        def spy(self, *args, _name=name, _original=original):
            taken.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Simulator, name, spy)
    return taken


def _rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def _ping_pong(plat, rounds=3):
    """A tile-local RPC: exercises core requests, blocking and the
    atomic switch, so every checker has events to route."""
    env = {}

    def server(api):
        yield from _rendezvous(api, env, "s_rep")
        for _ in range(rounds):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from _rendezvous(api, env, "c_sep")
        value = 0
        for _ in range(rounds):
            value = yield from api.call(env["c_sep"], env["c_rep"],
                                        data=value, size=16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 2, server))
    c = plat.run_proc(ctrl.spawn("client", 2, client))
    sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    plat.sim.run()


def _platform():
    return build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                     n_mem_tiles=1)).platform


def _count_events(run) -> int:
    before = engine.events_processed()
    run()
    return engine.events_processed() - before


def _untraced_events() -> int:
    return _count_events(lambda: _ping_pong(_platform()))


# -- the invariant suite alone: evq_pop costs nothing --------------------------

def test_suite_only_tracer_emits_no_evq_pop(loops):
    plat = _platform()
    tracer = Tracer(record=False).attach(plat.sim)
    suite = InvariantSuite().attach(tracer)
    emitted = []
    emit = tracer.emit

    def spy(sim, kind, **fields):
        emitted.append(kind)
        emit(sim, kind, **fields)

    tracer.emit = spy
    _ping_pong(plat)
    suite.finish()
    assert not tracer.wants("evq_pop")
    assert "evq_pop" not in emitted
    assert suite.seen > 0
    assert not tracer.events


def test_suite_only_run_takes_plain_loop_with_untraced_event_count(loops):
    untraced = _untraced_events()
    del loops[:]
    plat = _platform()
    tracer = Tracer(record=False).attach(plat.sim)
    suite = InvariantSuite().attach(tracer)
    traced = _count_events(lambda: _ping_pong(plat))
    suite.finish()
    assert traced == untraced
    assert loops and set(loops) == {"_run_plain"}


def test_unrouted_kinds_take_no_sequence_number():
    plat = _platform()
    tracer = Tracer(record=False).attach(plat.sim)
    got = []
    tracer.subscribe(got.append, kinds=("act_block",))
    _ping_pong(plat)
    assert got and {ev.kind for ev in got} == {"act_block"}
    assert [ev.seq for ev in got] == list(range(len(got)))


# -- all-kinds consumers keep the full stream -----------------------------------

def test_all_kinds_subscriber_gets_one_evq_pop_per_event(loops):
    """The ``bench/counts.py`` shape: ``capture(record=False)`` plus a
    subscriber without ``kinds``."""
    with capture(record=False) as tracer:
        pops = []
        tracer.subscribe(
            lambda ev: pops.append(ev) if ev.kind == "evq_pop" else None)
        processed = _count_events(lambda: _ping_pong(_platform()))
    assert tracer.wants("evq_pop")
    assert len(pops) == processed > 0
    assert loops and "_run_plain" not in loops


def test_all_kinds_consumer_beside_suite_sees_everything(loops):
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        kinds = []
        tracer.subscribe(lambda ev: kinds.append(ev.kind))
        processed = _count_events(lambda: _ping_pong(_platform()))
    suite.finish()
    assert kinds.count("evq_pop") == processed
    routed = set().union(*(c.kinds for c in suite.checkers))
    assert "evq_pop" not in routed
    assert suite.seen == sum(1 for k in kinds if k in routed)


def test_exclude_still_drops_kinds_when_recording():
    with capture(exclude=("evq_pop", "noc_inject")) as tracer:
        _ping_pong(_platform())
    seen = tracer.kinds()
    assert "evq_pop" not in seen and "noc_inject" not in seen
    assert seen.get("msg_send", 0) > 0
    assert not tracer.wants("evq_pop")
    # recording wants every kind that is not excluded
    assert tracer.wants("noc_deliver") and tracer.wants("no_such_kind")


def test_exclude_wins_over_a_subscriber_that_wants_the_kind():
    tracer = Tracer(exclude=("evq_pop",), record=False)
    tracer.subscribe(lambda ev: None, kinds=("evq_pop",))
    assert not tracer.wants("evq_pop")


# -- custom checkers ------------------------------------------------------------

class KindLog(Invariant):
    """A custom checker with the base class's ``kinds = None``."""

    name = "kind-log"

    def __init__(self):
        self.kinds_seen = []

    def on_event(self, ev):
        self.kinds_seen.append(ev.kind)


def test_custom_checker_without_kinds_receives_every_event(loops):
    with capture(record=False) as tracer:
        suite = InvariantSuite(checkers=ALL_INVARIANTS + (KindLog,))
        suite.attach(tracer)
        reference = []
        tracer.subscribe(lambda ev: reference.append(ev.kind))
        processed = _count_events(lambda: _ping_pong(_platform()))
    suite.finish()
    log = suite.checkers[-1]
    assert KindLog.kinds is None
    assert log.kinds_seen == reference
    assert log.kinds_seen.count("evq_pop") == processed
    assert suite.seen == len(reference)


# -- subscriptions between runs -------------------------------------------------

def _ticker(sim, n, period):
    def body():
        for _ in range(n):
            yield sim.timeout(period)
    return sim.process(body())


def test_subscription_between_runs_takes_effect_on_next_call(loops):
    sim = Simulator()
    tracer = Tracer(record=False).attach(sim)
    _ticker(sim, 10, 100)
    sim.run(until=450)
    assert loops == ["_run_plain"]
    assert not tracer.wants("evq_pop")

    pops = []
    tracer.subscribe(pops.append, kinds=("evq_pop",))
    assert tracer.wants("evq_pop")
    processed = _count_events(sim.run)
    assert loops == ["_run_plain", "_run_hooked"]
    assert processed > 0
    assert len(pops) == processed
    assert all(ev.ts > 450 for ev in pops)


# -- guard: the routing is declared once ---------------------------------------

def _routing_drift(cls) -> set:
    """Kinds on which a checker's ``kinds`` and its handler table
    disagree: a handled kind ``kinds`` omits, or a declared kind with no
    handler."""
    return set(cls.kinds or ()) ^ set(cls.handlers or ())


@pytest.mark.parametrize("cls", ALL_INVARIANTS, ids=lambda c: c.__name__)
def test_checker_declares_every_kind_it_branches_on(cls):
    """Each checker's ``kinds`` is exactly its handler table's keys, and
    the suite routes each of those kinds to that handler."""
    assert cls.handlers, f"{cls.__name__} has no handler table"
    assert cls.kinds == frozenset(cls.handlers)
    suite = InvariantSuite(checkers=(cls,))
    (checker,) = suite.checkers
    for kind, handler in cls.handlers.items():
        (routed,) = suite._dispatch[kind]
        assert routed.__func__ is handler and routed.__self__ is checker


def test_guard_catches_an_undeclared_branch():
    class Sloppy(MessageConservation):
        kinds = frozenset({"msg_send"})  # by hand: drifts from the table

    assert _routing_drift(Sloppy) == set(MessageConservation.handlers) - {
        "msg_send"}
    assert not _routing_drift(MessageConservation)

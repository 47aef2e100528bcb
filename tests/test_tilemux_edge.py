"""Edge-case tests for TileMux scheduling and the vDTU interplay."""

import pytest

from repro.api import SystemConfig, build_system
from repro.kernel.activity import Activity, ActState
from repro.mux.api import rendezvous
from repro.sim.trace import capture


def platform(**kw):
    kw.setdefault("n_proc_tiles", 4)
    kw.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(kind="m3v", **kw)).platform


def test_three_activities_round_robin_on_one_tile():
    plat = platform(timeslice_us=50.0)
    order = []

    def spinner(tag):
        def prog(api):
            for _ in range(6):
                yield from api.compute(5_000)
                order.append(tag)
        return prog

    ctrl = plat.controller
    acts = [plat.run_proc(ctrl.spawn(t, 0, spinner(t))) for t in "abc"]
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=10**13)
    # all three made progress interleaved, not strictly sequential
    first_third = order[:6]
    assert len(set(first_third)) >= 2


def test_blocked_activity_wakes_only_on_its_message():
    plat = platform()
    env, log = {}, []

    def waiter(api):
        yield from rendezvous(api, env, "w_rep")
        msg = yield from api.recv(env["w_rep"])
        log.append(("woke", msg.data))

    def other(api):
        yield from rendezvous(api, env, "o_rep")
        msg = yield from api.recv(env["o_rep"])
        log.append(("other", msg.data))

    def sender(api):
        yield from rendezvous(api, env, "to_o", "to_w")
        yield from api.send(env["to_o"], "for-other", 16)
        yield from api.compute(50_000)
        yield from api.send(env["to_w"], "for-waiter", 16)

    ctrl = plat.controller
    w = plat.run_proc(ctrl.spawn("waiter", 2, waiter))
    o = plat.run_proc(ctrl.spawn("other", 2, other))
    s = plat.run_proc(ctrl.spawn("sender", 0, sender))
    to_w, w_rep, _ = plat.run_proc(ctrl.wire_channel(s, w))
    to_o, o_rep, _ = plat.run_proc(ctrl.wire_channel(s, o))
    env.update(w_rep=w_rep, o_rep=o_rep, to_w=to_w, to_o=to_o)
    plat.sim.run_until_event(w.exit_event, limit=10**13)
    plat.sim.run_until_event(o.exit_event, limit=10**13)
    assert ("other", "for-other") in log
    assert ("woke", "for-waiter") in log


def test_device_irq_wakes_a_blocked_driver_once():
    """The NIC's interrupt line enters TileMux's wake path: a blocked
    driver becomes READY, is queued once and traced; the parked main
    loop is woken.  A driver that is not blocked only notes the kick."""
    with capture(exclude=("evq_pop",)) as tracer:
        plat = platform()
        mux = plat.mux(2)
        plat.sim.run(until=plat.sim.now + 10_000_000)  # the tile parks
        busy = Activity("busy", 2, state=ActState.RUNNING)
        mux.device_irq(busy)
        assert busy._dev_kick and busy.state is ActState.RUNNING
        assert busy not in mux.ready and not mux._wake.triggered

        driver = Activity("driver", 2, state=ActState.BLOCKED)
        mux.device_irq(driver)
        mux.device_irq(driver)
        assert driver.state is ActState.READY
        assert list(mux.ready) == [driver]
        assert mux._wake.triggered
    wakes = [(ev.get("tile"), ev.get("act"), ev.get("reason"))
             for ev in tracer.events if ev.kind == "act_wake"]
    assert wakes == [(2, driver.act_id, "device")]


def test_exit_during_contention_cleans_up():
    plat = platform()

    def short(api):
        yield from api.compute(1_000)
        yield from api.exit(0)

    def long(api):
        yield from api.compute(500_000)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("short", 3, short))
    b = plat.run_proc(ctrl.spawn("long", 3, long))
    plat.sim.run_until_event(a.exit_event, limit=10**13)
    plat.sim.run_until_event(b.exit_event, limit=10**13)
    assert not plat.mux(3).acts
    # the TLB holds no entries of exited activities
    assert plat.vdtu(3).tlb.invalidate(a.act_id) == 0


def test_tilemux_idle_time_accumulates():
    plat = platform()

    def brief(api):
        yield from api.compute(100)

    act = plat.run_proc(plat.controller.spawn("brief", 0, brief))
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    plat.sim.run(until=plat.sim.now + 5_000_000_000)  # 5 ms of nothing
    # waking TileMux (a new activity arrives) closes the idle interval
    act2 = plat.run_proc(plat.controller.spawn("brief2", 0, brief))
    plat.sim.run_until_event(act2.exit_event, limit=10**13)
    assert plat.mux(0).idle_ps > 4_000_000_000


def test_user_time_accounting_tracks_compute():
    plat = platform()

    def worker(api):
        yield from api.compute(800_000)  # 10 ms at 80 MHz

    act = plat.run_proc(plat.controller.spawn("worker", 0, worker))
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert act.user_ps == pytest.approx(10_000_000_000, rel=0.1)


def test_lost_wakeup_counter_exists():
    """The section 3.7 re-check is wired (hard to race deterministically,
    so we only assert the machinery is reachable and zero-initialised)."""
    plat = platform()
    assert plat.stats.counter_value("tilemux/lost_wakeups_averted") == 0


def test_closing_a_suspended_tilemux_send_does_not_yield():
    """A generator closed while suspended inside its ``try`` must not
    yield again; TileMux restores CUR_ACT only after a send that
    returned or raised."""
    from repro.kernel.protocol import EP_TMUX_SEP, NotifyMsg, TmuxNotify

    mux = platform().mux(0)
    send = mux._send_as_tilemux(
        EP_TMUX_SEP, NotifyMsg(TmuxNotify.LOAD, {"tile": 0, "depth": 1}),
        NotifyMsg.SIZE)
    for _ in range(3):
        next(send)
    send.close()            # raised "generator ignored GeneratorExit"

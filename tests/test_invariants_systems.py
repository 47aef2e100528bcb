"""System-level invariant checking on M3v and M3x (ISSUE: satellites).

The same :class:`InvariantSuite` is attached to both platforms and to
fault-perturbed schedules; two *mutation* tests then deliberately break
a mechanism (endpoint ownership, the CUR_ACT decrement) and assert the
corresponding checker catches it — evidence the suite has teeth.
"""

import pytest

from repro.api import SystemConfig, build_system
from repro.dtu.dtu import Dtu
from repro.dtu.vdtu import VDtu
from repro.faults import FaultPlan
from repro.sim.trace import capture
from repro.testing.faults import NocJitter, standard_plan
from repro.testing.invariants import (
    CurActConsistency,
    EndpointOwnership,
    InvariantSuite,
    InvariantViolation,
)

FAULT_SEEDS = (3, 11, 42)


def _rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def _ping_pong(plat, server_tile, client_tile, rounds=4):
    env, result = {}, {}

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
        result["value"] = value

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", server_tile, server))
    c = plat.run_proc(ctrl.spawn("client", client_tile, client))
    sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    return result["value"]


# -- both systems, clean and faulted ------------------------------------------

@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_m3v_invariants_under_faults(seed):
    """Tile-local + remote RPC on M3v with jitter and forced preemption:
    all five checkers stay green (section 3.7's race paths included)."""
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
        standard_plan(seed, deadline_ps=3_000_000_000).apply(plat)
        assert _ping_pong(plat, server_tile=2, client_tile=2, rounds=5) == 5
        assert _ping_pong(plat, server_tile=1, client_tile=0, rounds=3) == 3
        # the tile-local rounds must exercise the section 3.7/3.8 paths
        assert plat.stats.counter_value("vdtu/core_reqs") > 0
        assert plat.stats.counter_value("tilemux/blocks") > 0
        plat.sim.run()  # drain in-flight exit notifications
    assert suite.seen > 0
    suite.finish()


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_m3x_invariants_under_faults(seed):
    """The identical suite runs unchanged on the M3x baseline; the
    tile-local scenario takes the controller slow path (section 2.2)."""
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        plat = build_system(SystemConfig(kind="m3x", n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
        FaultPlan(seed, deadline_ps=3_000_000_000).add(NocJitter()).apply(plat)
        assert _ping_pong(plat, server_tile=2, client_tile=2, rounds=3) == 3
        assert _ping_pong(plat, server_tile=1, client_tile=0, rounds=3) == 3
        assert plat.stats.counter_value("ctrl/forwards") >= 6
        plat.sim.run()  # drain in-flight exit notifications
    assert suite.seen > 0
    suite.finish()


# -- section 3.7: the lost-wakeup race ----------------------------------------

def _paced_remote_stream(seed, n_msgs=10):
    """A remote sender paced against a blocking receiver that shares its
    tile with a spinner: every round the receiver drains, blocks, and
    the next (jittered) arrival may land exactly inside the switch-out
    window — the section 3.7 race."""
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        plat = build_system(SystemConfig(kind="m3v", timeslice_us=50.0,
                                          n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
        standard_plan(seed, deadline_ps=20_000_000_000).apply(plat)
        env, got = {}, []

        def receiver(api):
            yield from _rendezvous(api, env, "rep")
            for _ in range(n_msgs):
                msg = yield from api.recv(env["rep"])
                got.append(msg.data)
                yield from api.ack(env["rep"], msg)

        def spinner(api):
            for _ in range(80):
                yield from api.compute(2000)  # 25 us chunks, IRQ windows

        def sender(api):
            yield from _rendezvous(api, env, "sep")
            for i in range(n_msgs):
                yield from api.send(env["sep"], i, 16)
                yield from api.sleep_us(80.0)

        ctrl = plat.controller
        r = plat.run_proc(ctrl.spawn("recv", 3, receiver))
        sp = plat.run_proc(ctrl.spawn("spin", 3, spinner))
        snd = plat.run_proc(ctrl.spawn("send", 0, sender))
        sep, rep, _ = plat.run_proc(ctrl.wire_channel(snd, r, credits=4))
        env.update(sep=sep, rep=rep)
        for act in (snd, r, sp):
            plat.sim.run_until_event(act.exit_event, limit=10**13)
        assert got == list(range(n_msgs))
        assert plat.stats.counter_value("tilemux/blocks") > 0
        averted = plat.stats.counter_value("tilemux/lost_wakeups_averted")
        plat.sim.run()  # drain in-flight exit notifications
    suite.finish()
    return averted


def test_lost_wakeup_race_is_averted():
    """Drive the section 3.7 race: a message arrives while TileMux is
    switching away from the just-blocked receiver.  The atomic-switch
    re-check must catch the raced deposit (counter > 0 over the seeds)
    and BlockedWakeup must never see an activity stay blocked with a
    message pending."""
    averted = sum(_paced_remote_stream(seed) for seed in (1, 2, 7))
    assert averted > 0, "seed sweep never hit the section 3.7 race window"


# -- section 3.8: core-request queue overrun and backpressure -----------------

def test_queue_overrun_backpressure():
    """With a one-deep core-request queue and a compute-bound activity
    holding the core, bursts to non-running receivers overrun the queue;
    the deposit stalls (NoC backpressure) instead of dropping, and the
    queue-bound / conservation checkers hold throughout."""
    config = SystemConfig(kind="m3v", n_proc_tiles=4, n_mem_tiles=1,
                          dtu_overrides={"core_req_queue_depth": 1})
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        plat = build_system(config).platform
        FaultPlan(5, deadline_ps=4_000_000_000).add(NocJitter()).apply(plat)
        env, got = {}, {"a": 0, "b": 0}

        def receiver(tag):
            def prog(api):
                yield from _rendezvous(api, env, f"{tag}_rep")
                for _ in range(4):
                    msg = yield from api.recv(env[f"{tag}_rep"])
                    got[tag] += 1
                    yield from api.ack(env[f"{tag}_rep"], msg)
            return prog

        def sender(tag):
            def prog(api):
                yield from _rendezvous(api, env, f"{tag}_sep")
                for i in range(4):
                    yield from api.send(env[f"{tag}_sep"], (tag, i), 16)
            return prog

        def spinner(api):
            yield from api.compute(400_000)  # ~5 ms: hogs the core

        ctrl = plat.controller
        spin = plat.run_proc(ctrl.spawn("spin", 3, spinner))
        ra = plat.run_proc(ctrl.spawn("recv-a", 3, receiver("a")))
        rb = plat.run_proc(ctrl.spawn("recv-b", 3, receiver("b")))
        sa = plat.run_proc(ctrl.spawn("send-a", 0, sender("a")))
        sb = plat.run_proc(ctrl.spawn("send-b", 1, sender("b")))
        sep_a, rep_a, _ = plat.run_proc(ctrl.wire_channel(sa, ra, credits=4))
        sep_b, rep_b, _ = plat.run_proc(ctrl.wire_channel(sb, rb, credits=4))
        env.update(a_rep=rep_a, b_rep=rep_b, a_sep=sep_a, b_sep=sep_b)
        for act in (ra, rb, sa, sb, spin):
            plat.sim.run_until_event(act.exit_event, limit=10**13)
        assert got == {"a": 4, "b": 4}
        assert plat.stats.counter_value("vdtu/core_req_overruns") > 0
        plat.sim.run()  # drain in-flight exit notifications
    assert suite.seen > 0
    suite.finish()


# -- mutation tests: a broken mechanism must be *caught* ----------------------

def test_mutation_ownership_bypass_is_caught(monkeypatch):
    """Break section 3.5: skip the vDTU's owner check (but keep the
    trace event honest).  A foreign fetch then reaches the endpoint and
    EndpointOwnership must flag it."""

    def leaky_usable_ep(self, ep_id, kind):
        ep = Dtu._usable_ep(self, ep_id, kind)  # base checks only
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(self.sim, "ep_use", tile=self.tile, ep=ep_id,
                        owner=ep.act, cur_act=self.cur_act)
        return ep

    monkeypatch.setattr(VDtu, "_usable_ep", leaky_usable_ep)
    with capture(record=False) as tracer:
        InvariantSuite(checkers=(EndpointOwnership,)).attach(tracer)
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
        env = {}

        def server(api):
            yield from _rendezvous(api, env, "s_rep")
            yield from api.recv(env["s_rep"])

        def intruder(api):
            yield from _rendezvous(api, env, "s_rep")
            # fetch from the *server's* receive endpoint
            yield from api.fetch(env["s_rep"])

        ctrl = plat.controller
        s = plat.run_proc(ctrl.spawn("server", 2, server))
        i = plat.run_proc(ctrl.spawn("intruder", 2, intruder))
        sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(i, s))
        env.update(s_rep=rep)
        with pytest.raises(InvariantViolation, match="ep-ownership"):
            plat.sim.run_until_event(i.exit_event, limit=10**13)


def test_unmutated_foreign_fetch_is_refused():
    """Control for the mutation test: with the real vDTU the same
    foreign fetch fails with UNKNOWN_EP and no ownership event fires."""
    from repro.dtu import DtuError, DtuFault

    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
    env, seen = {}, {}

    def intruder(api):
        yield from _rendezvous(api, env, "s_rep")
        try:
            yield from api.fetch(env["s_rep"])
        except DtuFault as fault:
            seen["error"] = fault.error

    def server(api):
        yield from _rendezvous(api, env, "done")
        if False:
            yield

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 2, server))
    i = plat.run_proc(ctrl.spawn("intruder", 2, intruder))
    _, rep, _ = plat.run_proc(ctrl.wire_channel(i, s))
    env["s_rep"] = rep  # the server's receive EP — foreign to the intruder
    plat.sim.run_until_event(i.exit_event, limit=10**13)
    env["done"] = True
    plat.sim.run_until_event(s.exit_event, limit=10**13)
    assert seen["error"] is DtuError.UNKNOWN_EP


def test_mutation_forgotten_cur_act_decrement_is_caught(monkeypatch):
    """Break section 3.7: FETCH reports the decrement but never applies
    it to the register.  The shadow kept by CurActConsistency diverges
    from the value the atomic switch reads back — caught."""

    def forgetful_on_fetch(self, ep):
        if ep.act == self.cur_act and self.cur_msgs > 0:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(self.sim, "cur_dec", tile=self.tile,
                            act=self.cur_act, cur=self.cur_msgs - 1)
            # bug under test: self.cur_msgs is never decremented

    monkeypatch.setattr(VDtu, "_on_fetch", forgetful_on_fetch)
    with capture(record=False) as tracer:
        InvariantSuite(checkers=(CurActConsistency,)).attach(tracer)
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                          n_mem_tiles=1)).platform
        with pytest.raises(InvariantViolation, match="cur-act"):
            _ping_pong(plat, server_tile=2, client_tile=2, rounds=3)

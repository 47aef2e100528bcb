"""Integration tests for the M3x baseline: remote multiplexing + slow path."""

import pytest

from repro.api import SystemConfig, build_system


def m3x_platform(**kw):
    kw.setdefault("n_proc_tiles", 4)
    kw.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(kind="m3x", **kw)).platform


def rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def test_m3x_spawn_and_exit():
    plat = m3x_platform()
    done = []

    def prog(api):
        yield from api.compute(500)
        done.append(api.sim.now)
        yield from api.exit(7)

    act = plat.run_proc(plat.controller.spawn("solo", 0, prog))
    code = plat.sim.run_until_event(act.exit_event, limit=10**12)
    assert code == 7 and done


def test_m3x_remote_rpc_fast_path():
    """Cross-tile communication with both partners running stays on
    the fast path — no controller involvement."""
    plat = m3x_platform()
    env, result = {}, {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        msg = yield from api.recv(env["s_rep"])
        yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        result["v"] = yield from api.call(env["c_sep"], env["c_rep"], 41, 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["v"] == 42
    assert plat.stats.counter_value("ctrl/forwards") == 0


def test_m3x_tile_local_rpc_takes_slow_path():
    """Two activities on one tile can only talk through the controller
    (section 2.2): every request and reply is forwarded."""
    plat = m3x_platform()
    env, result = {}, {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        for _ in range(3):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        v = 0
        for _ in range(3):
            v = yield from api.call(env["c_sep"], env["c_rep"], v, 16)
        result["v"] = v

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 2, server))
    c = plat.run_proc(ctrl.spawn("client", 2, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["v"] == 3
    assert plat.stats.counter_value("ctrl/forwards") >= 6  # 2 per RPC
    assert plat.stats.counter_value("m3x/switches") > 0


def measure_local_rpc(kind, n=10, **kw):
    plat = build_system(SystemConfig(kind=kind, n_proc_tiles=4,
                                     n_mem_tiles=1), **kw).platform
    env, out = {}, {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data="pong", size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for _ in range(3):
            yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
        start = api.sim.now
        for _ in range(n):
            yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
        out["ps"] = (api.sim.now - start) / n
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 0, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    return out["ps"]


def test_m3x_local_rpc_much_slower_than_m3v():
    """Section 6.2: M3x needs ~27k cycles for a tile-local RPC where
    M3v needs ~5k — the slow path dominates."""
    m3x = measure_local_rpc("m3x")
    m3v = measure_local_rpc("m3v")
    assert m3x > 3 * m3v


def test_m3x_three_activities_round_robin_via_controller():
    plat = m3x_platform()
    env, log = {}, []

    def worker(tag):
        def prog(api):
            yield from rendezvous(api, env, f"{tag}_rep")
            msg = yield from api.recv(env[f"{tag}_rep"])
            log.append((tag, msg.data))
            yield from api.reply(env[f"{tag}_rep"], msg, data=tag, size=16)
        return prog

    def driver(api):
        yield from rendezvous(api, env, "a_sep", "b_sep")
        ra = yield from api.call(env["a_sep"], env["d_rep_a"], "to-a", 16)
        rb = yield from api.call(env["b_sep"], env["d_rep_b"], "to-b", 16)
        log.append(("driver", ra, rb))

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("a", 3, worker("a")))
    b = plat.run_proc(ctrl.spawn("b", 3, worker("b")))
    d = plat.run_proc(ctrl.spawn("driver", 3, driver))
    sa, ra_, rpa = plat.run_proc(ctrl.wire_channel(d, a))
    sb, rb_, rpb = plat.run_proc(ctrl.wire_channel(d, b))
    env.update(a_rep=ra_, b_rep=rb_, a_sep=sa, b_sep=sb,
               d_rep_a=rpa, d_rep_b=rpb)
    plat.sim.run_until_event(d.exit_event, limit=10**13)
    assert ("driver", "a", "b") in log

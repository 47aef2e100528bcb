"""Integration tests: full M3v platform with TileMux, controller, vDTU."""

from repro.api import SystemConfig, build_system
from repro.dtu import Perm
from repro.kernel.protocol import Syscall


def small_platform(**kw):
    kw.setdefault("n_proc_tiles", 4)
    kw.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(kind="m3v", **kw)).platform


def rendezvous(api, env, *keys):
    """Boot-time helper: wait until the test wired the channels."""
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def test_spawn_creates_ready_activity():
    plat = small_platform()
    done = []

    def prog(api):
        yield from api.compute(1000)
        done.append(api.sim.now)

    act = plat.run_proc(plat.controller.spawn("worker", 0, prog))
    assert act.act_id >= 1
    plat.sim.run_until_event(act.exit_event, limit=10**12)
    assert done and act.exit_code == 0


def test_activity_exit_notifies_controller():
    plat = small_platform()

    def prog(api):
        yield from api.compute(10)
        yield from api.exit(42)

    act = plat.run_proc(plat.controller.spawn("quitter", 1, prog))
    code = plat.sim.run_until_event(act.exit_event, limit=10**12)
    assert code == 42
    assert plat.stats.counter_value("ctrl/exits") == 1


def test_remote_ping_pong():
    plat = small_platform()
    env = {}
    result = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        msg = yield from api.recv(env["s_rep"])
        yield from api.reply(env["s_rep"], msg, data=msg.data * 2, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        value = yield from api.call(env["c_sep"], env["c_rep"], data=21, size=16)
        result["value"] = value

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s))
    env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["value"] == 42


def test_local_ping_pong_shares_one_tile():
    plat = small_platform()
    env = {}
    result = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        for _ in range(3):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        value = 0
        for _ in range(3):
            value = yield from api.call(env["c_sep"], env["c_rep"],
                                        data=value, size=16)
        result["value"] = value

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 2, server))
    c = plat.run_proc(ctrl.spawn("client", 2, client))  # same tile!
    sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s))
    env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["value"] == 3
    # tile-local communication must have gone through core requests
    assert plat.stats.counter_value("vdtu/core_reqs") > 0
    assert plat.stats.counter_value("tilemux/ctx_switches") > 0


def test_local_rpc_slower_than_remote():
    """Section 6.2: tile-local RPC involves TileMux twice and is
    significantly more expensive than cross-tile RPC."""

    def measure(local):
        plat = small_platform()
        env = {}
        times = {}

        def server(api):
            yield from rendezvous(api, env, "s_rep")
            while True:
                msg = yield from api.recv(env["s_rep"])
                if msg.data == "stop":
                    return
                yield from api.reply(env["s_rep"], msg, data="pong", size=16)

        def client(api):
            yield from rendezvous(api, env, "c_sep")
            for _ in range(5):  # warmup
                yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
            start = api.sim.now
            for _ in range(20):
                yield from api.call(env["c_sep"], env["c_rep"], "ping", 16)
            times["rpc_ps"] = (api.sim.now - start) / 20
            yield from api.send(env["c_sep"], "stop", 16)

        ctrl = plat.controller
        s = plat.run_proc(ctrl.spawn("server", 0 if local else 1, server))
        c = plat.run_proc(ctrl.spawn("client", 0, client))
        sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
        env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
        plat.sim.run_until_event(c.exit_event, limit=10**13)
        return times["rpc_ps"]

    local = measure(local=True)
    remote = measure(local=False)
    assert local > 1.5 * remote


def test_syscall_noop_roundtrip():
    plat = small_platform()
    out = {}

    def prog(api):
        start = api.sim.now
        yield from api.syscall(Syscall.NOOP)
        out["latency_ps"] = api.sim.now - start

    act = plat.run_proc(plat.controller.spawn("caller", 0, prog))
    plat.sim.run_until_event(act.exit_event, limit=10**12)
    assert out["latency_ps"] > 0
    assert plat.stats.counter_value("ctrl/syscalls") == 1


def test_runtime_channel_setup_via_syscalls():
    """The full runtime path: rgate/sgate creation, delegation,
    activation — all through controller system calls."""
    plat = small_platform()
    result = {}
    shared = {}

    def server(api):
        while "client" not in shared:
            yield api.sim.timeout(1_000_000)
        rsel = yield from api.syscall(Syscall.CREATE_RGATE,
                                      {"slots": 4, "slot_size": 128})
        rep = yield from api.syscall(Syscall.ACTIVATE, {"sel": rsel})
        ssel = yield from api.syscall(Syscall.CREATE_SGATE,
                                      {"rgate_sel": rsel, "label": 99,
                                       "credits": 1})
        yield from api.syscall(Syscall.DELEGATE,
                               {"sel": ssel, "target_act": shared["client"],
                                "target_sel": 50})
        shared["ready"] = True
        msg = yield from api.recv(rep)
        result["label"] = msg.label
        yield from api.reply(rep, msg, data="ok", size=16)

    def client(api):
        while "ready" not in shared:
            yield api.sim.timeout(1_000_000)
        # reply gate for the RPC
        rsel = yield from api.syscall(Syscall.CREATE_RGATE,
                                      {"slots": 2, "slot_size": 128})
        rep = yield from api.syscall(Syscall.ACTIVATE, {"sel": rsel})
        sep = yield from api.syscall(Syscall.ACTIVATE, {"sel": 50})
        value = yield from api.call(sep, rep, data="hello", size=16)
        result["value"] = value

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 2, client))
    shared["client"] = c.act_id
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    assert result["value"] == "ok"
    assert result["label"] == 99


def test_mgate_syscalls_and_dma():
    plat = small_platform()
    result = {}

    def prog(api):
        msel = yield from api.syscall(Syscall.CREATE_MGATE, {"size": 8192})
        ep = yield from api.syscall(Syscall.ACTIVATE, {"sel": msel})
        yield from api.write(ep, 0, b"persistent data")
        data = yield from api.read(ep, 0, 15)
        # derive a read-only sub-window and access it
        dsel = yield from api.syscall(Syscall.DERIVE_MGATE,
                                      {"mgate_sel": msel, "offset": 0,
                                       "size": 4096, "perm": Perm.R})
        dep = yield from api.syscall(Syscall.ACTIVATE, {"sel": dsel})
        data2 = yield from api.read(dep, 0, 15)
        result["data"] = data
        result["data2"] = data2

    act = plat.run_proc(plat.controller.spawn("dma", 0, prog))
    plat.sim.run_until_event(act.exit_event, limit=10**13)
    assert result["data"] == b"persistent data"
    assert result["data2"] == b"persistent data"


def test_preemption_timeslices_two_spinners():
    plat = small_platform(timeslice_us=100.0)
    progress = {"a": 0, "b": 0}

    def spinner(tag):
        def prog(api):
            for _ in range(40):
                yield from api.compute(2000)  # 25us per chunk at 80MHz
                progress[tag] += 1
        return prog

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("a", 3, spinner("a")))
    b = plat.run_proc(ctrl.spawn("b", 3, spinner("b")))
    # run until roughly half the work is done, then check interleaving
    plat.sim.run(until=plat.sim.now + 3_000_000_000)
    assert progress["a"] > 5 and progress["b"] > 5
    plat.sim.run_until_event(b.exit_event, limit=10**13)
    assert plat.stats.counter_value("tilemux/preemptions") > 0


def test_exit_frees_tile_for_next_activity():
    plat = small_platform()
    order = []

    def first(api):
        yield from api.compute(100)
        order.append("first")

    def second(api):
        yield from api.compute(100)
        order.append("second")

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("first", 0, first))
    plat.sim.run_until_event(a.exit_event, limit=10**12)
    b = plat.run_proc(ctrl.spawn("second", 0, second))
    plat.sim.run_until_event(b.exit_event, limit=10**12)
    assert order == ["first", "second"]
    assert not plat.mux(0).acts

"""Tests for the Linux baseline machine."""

import pytest

from repro.linuxsim import LinuxMachine
from repro.linuxsim.machine import O_CREAT, O_WRONLY, LinuxError


def run(machine, proc, limit=10**13):
    return machine.sim.run_until_event(proc.exit_event, limit=limit)


def test_process_runs_and_exits():
    m = LinuxMachine()
    out = []

    def prog(api):
        yield from api.compute(1000)
        out.append(api.sim.now)

    p = m.spawn("p", prog)
    run(m, p)
    assert out and p.state == "exited"


def test_noop_syscall_costs_about_1800_cycles():
    """Figure 6 anchor: a no-op Linux syscall ~ 1.8k cycles at 80 MHz."""
    m = LinuxMachine()
    out = {}

    def prog(api):
        yield from api.noop_syscall()  # warm
        start = api.sim.now
        for _ in range(10):
            yield from api.noop_syscall()
        out["cy"] = (api.sim.now - start) / 10 / m.clock.period_ps

    run(m, m.spawn("p", prog))
    assert 1500 <= out["cy"] <= 2400


def test_yield_pair_costs_like_m3v_local_rpc():
    """Figure 6: two yields (two context switches) ~ 5k cycles."""
    m = LinuxMachine()
    out = {}

    def ponger(api):
        for _ in range(25):
            yield from api.sched_yield()

    def pinger(api):
        for _ in range(5):
            yield from api.sched_yield()  # warm
        start = api.sim.now
        for _ in range(10):
            yield from api.sched_yield()  # partner yields back: 2 switches
        out["cy"] = (api.sim.now - start) / 10 / m.clock.period_ps

    m.spawn("ponger", ponger)
    p = m.spawn("pinger", pinger)
    run(m, p)
    assert 4000 <= out["cy"] <= 7500


def test_tmpfs_write_read_roundtrip():
    m = LinuxMachine()
    out = {}

    def prog(api):
        fd = yield from api.open("/f", O_WRONLY | O_CREAT)
        yield from api.write(fd, b"linux data" * 50)
        yield from api.close(fd)
        fd = yield from api.open("/f")
        out["data"] = yield from api.read(fd, 10)
        st = yield from api.stat("/f")
        out["size"] = st["size"]

    run(m, m.spawn("p", prog))
    assert out["data"] == b"linux data"
    assert out["size"] == 500


def test_every_read_is_a_syscall():
    """Unlike m3fs extent grants, Linux pays a trap per read (6.3)."""
    m = LinuxMachine()

    def prog(api):
        fd = yield from api.open("/f", O_WRONLY | O_CREAT)
        yield from api.write(fd, b"x" * 16384)
        yield from api.close(fd)
        fd = yield from api.open("/f")
        for _ in range(4):
            yield from api.read(fd, 4096)

    before = m.stats.counter_value("linux/syscalls")
    run(m, m.spawn("p", prog))
    # open+write+close+open+4 reads, each at least one trap
    assert m.stats.counter_value("linux/syscalls") - before >= 8


def test_dirs_and_readdir():
    m = LinuxMachine()
    out = {}

    def prog(api):
        yield from api.mkdir("/d")
        fd = yield from api.open("/d/one", O_CREAT | O_WRONLY)
        yield from api.close(fd)
        out["names"] = yield from api.readdir("/d")
        yield from api.unlink("/d/one")
        out["after"] = yield from api.readdir("/d")

    run(m, m.spawn("p", prog))
    assert out["names"] == ["one"] and out["after"] == []


def test_missing_file_raises():
    m = LinuxMachine()
    out = {}

    def prog(api):
        try:
            yield from api.open("/nope")
        except LinuxError as exc:
            out["err"] = str(exc)

    run(m, m.spawn("p", prog))
    assert "no such file" in out["err"]


def test_getrusage_splits_user_and_system():
    m = LinuxMachine()
    out = {}

    def prog(api):
        yield from api.compute(100_000)  # pure user time
        fd = yield from api.open("/f", O_CREAT | O_WRONLY)
        yield from api.write(fd, b"y" * 8192)
        yield from api.close(fd)
        out["usage"] = api.getrusage()

    run(m, m.spawn("p", prog))
    usage = out["usage"]
    assert usage["user_s"] > 0
    assert usage["sys_s"] > 0
    # 100k user cycles at 80 MHz = 1.25 ms
    assert usage["user_s"] == pytest.approx(100_000 / 80e6, rel=0.05)


def test_udp_echo_roundtrip_linux():
    m = LinuxMachine(with_net=True)
    m.remote.echo_ports.add(7)
    out = {}

    def prog(api):
        sid = yield from api.socket()
        yield from api.bind(sid, 6000)
        start = api.sim.now
        yield from api.sendto(sid, 7, b"p", 1)
        reply = yield from api.recvfrom(sid)
        out["rtt_us"] = (api.sim.now - start) / 1e6
        out["reply"] = reply

    run(m, m.spawn("p", prog))
    assert out["reply"]["data"] == b"p"
    # Figure 8 ballpark: hundreds of microseconds at 80 MHz
    assert 100 <= out["rtt_us"] <= 1500


def test_scheduler_interleaves_two_spinners():
    m = LinuxMachine()
    progress = {"a": 0, "b": 0}

    def spinner(tag):
        def prog(api):
            for _ in range(30):
                yield from api.compute(50_000)
                progress[tag] += 1
        return prog

    m.spawn("a", spinner("a"))
    p = m.spawn("b", spinner("b"))
    m.sim.run(until=25_000_000_000)  # 25 ms: both must have run
    assert progress["a"] > 0 and progress["b"] > 0
    run(m, p)


def test_socket_requires_net():
    m = LinuxMachine()  # no networking
    out = {}

    def prog(api):
        try:
            yield from api.socket()
        except LinuxError as exc:
            out["err"] = str(exc)

    run(m, m.spawn("p", prog))
    assert "without networking" in out["err"]

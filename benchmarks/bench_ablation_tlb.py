"""Ablation: vDTU TLB capacity (section 3.6).

The vDTU's software-loaded TLB is filled by TileMux on demand; a miss
fails the command and costs a TMCall round trip.  An activity cycling
DMA buffers over more pages than the TLB holds thrashes it — this
sweep shows the cliff, which motivates sizing the TLB to the working
set of communication buffers.
"""

from conftest import paper_scale, print_table

from repro.api import SystemConfig, build_system
from repro.dtu.endpoints import Perm


def measure(tlb_entries: int, pages: int, rounds: int) -> float:
    """Mean us per 64-byte send cycling through ``pages`` buffers."""
    plat = build_system(SystemConfig(
        dtu_overrides={"tlb_entries": tlb_entries}))
    env, out = {}, {}

    def server(api):
        while "s_rep" not in env:
            yield api.sim.timeout(1_000_000)
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.ack(env["s_rep"], msg)

    def client(api):
        while "c_sep" not in env:
            yield api.sim.timeout(1_000_000)
        bufs = [api.alloc_buf(4096) for _ in range(pages)]
        # warm: map every page once
        for buf in bufs:
            yield from api.touch(buf, Perm.RW)
        start = api.sim.now
        n = 0
        for _ in range(rounds):
            for buf in bufs:
                yield from api.send(env["c_sep"], b"x", 64, virt=buf)
                n += 1
        out["ps"] = (api.sim.now - start) / n
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client,
                                 heap_bytes=max(512 * 1024, pages * 4096 * 2)))
    sep, rep, _ = plat.run_proc(ctrl.wire_channel(c, s, credits=8, slots=16))
    env.update(s_rep=rep, c_sep=sep)
    plat.sim.run_until_event(c.exit_event, limit=10**15)
    out["tlb_misses"] = plat.vdtu(0).tlb.misses
    return out["ps"] / 1e6, out["tlb_misses"]


def test_ablation_tlb_capacity(benchmark):
    rounds = 20 if paper_scale() else 6
    pages = 48  # working set larger than the small TLBs

    def sweep():
        return {n: measure(n, pages, rounds) for n in (8, 32, 128)}

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [f"TLB {n:4d} entries: {us:6.2f} us/send, {misses:5d} misses"
            for n, (us, misses) in data.items()]
    print_table("Ablation: vDTU TLB capacity", rows)

    # a TLB smaller than the working set thrashes (TMCall per send)
    assert data[8][0] > data[128][0]
    assert data[8][1] > data[128][1]

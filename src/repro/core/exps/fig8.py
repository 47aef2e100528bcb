"""Figure 8: UDP round-trip latency, M3v (shared/isolated) vs Linux.

50 repetitions of sending and receiving 1-byte packets after 5 warmup
runs; the peer is the fast remote host over a direct gigabit link
(section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.exps.common import fpga_system, linux_system
from repro.services.boot import boot_net, boot_pager, connect_net
from repro.services.net import NetClient

ECHO_PORT = 7
FIG8_KINDS = ("linux", "m3v_shared", "m3v_isolated")


@dataclass(frozen=True)
class Fig8Point:
    """One bar: ``kind`` is one of :data:`FIG8_KINDS`."""

    kind: str
    repetitions: int = 50
    warmup: int = 5
    payload_bytes: int = 1


def _run_m3v(p: Fig8Point) -> float:
    """Mean RTT in microseconds."""
    plat = fpga_system()
    shared = p.kind == "m3v_shared"
    nic_tile = 1                       # net is pinned to the NIC tile
    bench_tile = 1 if shared else 2
    pager_tile = 1 if shared else 3

    plat.run_proc(boot_pager(plat, tile=pager_tile))
    net = plat.run_proc(boot_net(plat, tile=nic_tile))
    net.remote.echo_ports.add(ECHO_PORT)
    env: Dict = {}
    out: Dict = {}

    def bench(api):
        while "net_eps" not in env:
            yield api.sim.timeout(1_000_000)
        netc = NetClient(api, *env["net_eps"])
        sid = yield from netc.socket()
        yield from netc.bind(sid, 5000)
        for _ in range(p.warmup):
            yield from netc.sendto(sid, ECHO_PORT, b"x", p.payload_bytes)
            yield from netc.recvfrom(sid)
        start = api.sim.now
        for _ in range(p.repetitions):
            yield from netc.sendto(sid, ECHO_PORT, b"x", p.payload_bytes)
            yield from netc.recvfrom(sid)
        out["ps"] = (api.sim.now - start) / p.repetitions

    act = plat.run_proc(plat.controller.spawn("bench", bench_tile, bench,
                                              pager="pager"))
    env["net_eps"] = plat.run_proc(connect_net(plat, act, net))
    plat.sim.run_until_event(act.exit_event, limit=10**15)
    return out["ps"] / 1e6


def _run_linux(p: Fig8Point) -> float:
    machine = linux_system(with_net=True)
    machine.remote.echo_ports.add(ECHO_PORT)
    out: Dict = {}

    def prog(api):
        sid = yield from api.socket()
        yield from api.bind(sid, 5000)
        for _ in range(p.warmup):
            yield from api.sendto(sid, ECHO_PORT, b"x", p.payload_bytes)
            yield from api.recvfrom(sid)
        start = api.sim.now
        for _ in range(p.repetitions):
            yield from api.sendto(sid, ECHO_PORT, b"x", p.payload_bytes)
            yield from api.recvfrom(sid)
        out["ps"] = (api.sim.now - start) / p.repetitions

    proc = machine.spawn("bench", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**15)
    return out["ps"] / 1e6


# -- sweep decomposition (repro.runner) ---------------------------------------

def fig8_points(**size) -> List[Fig8Point]:
    """The three bars; ``size`` sets the point fields (paper scale by
    default)."""
    return [Fig8Point(kind, **size) for kind in FIG8_KINDS]


def run_fig8_point(pt: Fig8Point) -> float:
    """Mean RTT in microseconds for one bar of Figure 8."""
    if pt.kind == "linux":
        return _run_linux(pt)
    if pt.kind in ("m3v_shared", "m3v_isolated"):
        return _run_m3v(pt)
    raise ValueError(f"unknown fig8 point kind {pt.kind!r}")


def reduce_fig8(points: List[Fig8Point],
                values: List[float]) -> Dict[str, float]:
    """Mean RTT in microseconds per bar."""
    return {pt.kind: v for pt, v in zip(points, values)}

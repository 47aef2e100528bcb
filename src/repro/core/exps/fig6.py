"""Figure 6: local/remote communication on M3v and Linux references.

Four bars: Linux yield (2x), Linux syscall, M3v local RPC, M3v remote
RPC — all no-op round-trips on the 80 MHz BOOM FPGA cores, 1000 runs
with a warm system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.exps.common import fpga_system, linux_system
from repro.mux.api import rendezvous
from repro.tiles.costs import BOOM

FIG6_KINDS = ("linux_yield_2x", "linux_syscall", "m3v_local", "m3v_remote")


@dataclass(frozen=True)
class Fig6Point:
    """One bar: ``kind`` is one of :data:`FIG6_KINDS`."""

    kind: str
    iterations: int = 1000
    warmup: int = 50


def _measure_m3v_rpc(plat, p: Fig6Point) -> float:
    """Mean no-op RPC latency in ps on ``plat``, an FPGA M3v system;
    the server shares the client's tile for ``m3v_local``."""
    env: Dict = {}
    out: Dict = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.reply(env["s_rep"], msg, data=0, size=16)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        for _ in range(p.warmup):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        start = api.sim.now
        for _ in range(p.iterations):
            yield from api.call(env["c_sep"], env["c_rep"], 0, 16)
        out["ps"] = (api.sim.now - start) / p.iterations
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    local = p.kind == "m3v_local"
    server_act = plat.run_proc(ctrl.spawn("server", 0 if local else 1, server))
    client_act = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(client_act, server_act,
                                                    credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(client_act.exit_event, limit=10**14)
    return out["ps"]


def _measure_linux_syscall(p: Fig6Point) -> float:
    machine = linux_system()
    out: Dict = {}

    def prog(api):
        for _ in range(p.warmup):
            yield from api.noop_syscall()
        start = api.sim.now
        for _ in range(p.iterations):
            yield from api.noop_syscall()
        out["ps"] = (api.sim.now - start) / p.iterations

    proc = machine.spawn("bench", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**14)
    return out["ps"]


def _measure_linux_yield2(p: Fig6Point) -> float:
    """Two context switches: ping yields to pong, pong yields back."""
    machine = linux_system()
    out: Dict = {}
    n = p.iterations

    def ponger(api):
        for _ in range(n + p.warmup + 5):
            yield from api.sched_yield()

    def pinger(api):
        for _ in range(p.warmup):
            yield from api.sched_yield()
        start = api.sim.now
        for _ in range(n):
            yield from api.sched_yield()
        out["ps"] = (api.sim.now - start) / n

    machine.spawn("ponger", ponger)
    proc = machine.spawn("pinger", pinger)
    machine.sim.run_until_event(proc.exit_event, limit=10**14)
    return out["ps"]


# -- sweep decomposition (repro.runner) ---------------------------------------
#
# One point per bar; each point builds its own platform, so points are
# pure and picklable and the parallel runner can fan them out.

def fig6_points(**size) -> List[Fig6Point]:
    """The four bars; ``size`` sets the point fields (paper scale by
    default)."""
    return [Fig6Point(kind, **size) for kind in FIG6_KINDS]


def run_fig6_point(pt: Fig6Point) -> float:
    """Mean round-trip latency in ps for one bar of Figure 6."""
    if pt.kind == "linux_yield_2x":
        return _measure_linux_yield2(pt)
    if pt.kind == "linux_syscall":
        return _measure_linux_syscall(pt)
    if pt.kind in ("m3v_local", "m3v_remote"):
        return _measure_m3v_rpc(fpga_system(), pt)
    raise ValueError(f"unknown fig6 point kind {pt.kind!r}")


def reduce_fig6(points: List[Fig6Point],
                values: List[float]) -> Dict[str, Dict[str, float]]:
    """Rows: name -> {us, kcycles} like the two x-axes of Fig 6."""
    period_ps = BOOM.clock.period_ps
    return {pt.kind: {"us": ps / 1e6, "kcycles": ps / period_ps / 1e3}
            for pt, ps in zip(points, values)}

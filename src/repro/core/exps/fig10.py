"""Figure 10: the cloud service — YCSB on a LevelDB-like store.

Four components: the database (LSM store + request handling), the file
system backing it, the network stack shipping requests and results via
UDP to the remote machine, and the pager.  Configurations: "isolated"
(a tile per component), "shared" (all four on one BOOM tile), and
Linux (everything on the one Linux tile).  Reported: total runtime
split into user and system time (section 6.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List

from repro.apps.lsm import LsmStore
from repro.core.exps.common import fpga_system, linux_system
from repro.mux.api import rendezvous
from repro.posix.vfs import LinuxVfs, M3vVfs
from repro.services.boot import (
    boot_m3fs,
    boot_net,
    boot_pager,
    connect_fs,
    connect_net,
)
from repro.services.m3fs import FsClient
from repro.services.net import NetClient
from repro.workloads.ycsb import YcsbOp, make_workload

CLOUD_PORT = 9100
REQUEST_BYTES = 48      # serialized request shipped via UDP
RESULT_BYTES = 64       # op result shipped via UDP
HANDLE_REQ_CY = 20_000  # request decode + dispatch in the db component

FIG10_MIXES = ("read", "insert", "update", "mixed", "scan")
FIG10_SYSTEMS = ("m3v_isolated", "m3v_shared", "linux")


@dataclass(frozen=True)
class Fig10Point:
    mix: str                   # one of FIG10_MIXES
    system: str                # one of FIG10_SYSTEMS
    records: int = 200
    operations: int = 200
    runs: int = 2
    warmup: int = 1
    seed: int = 1


def _bench(api, vfs, net, p: Fig10Point,
           mark: Callable[[], Any]) -> Generator:
    """The database program of both systems: ``p.warmup`` then
    ``p.runs`` runs, each loading a fresh store and executing the
    operation mix.  ``api`` (for compute and the clock) and ``net`` are
    M3v's library and ``NetClient`` or both the Linux libc.  Returns the
    measured runs' simulated time and what ``mark()`` returned at
    their start."""
    sid = yield from net.socket()
    yield from net.bind(sid)

    def one_run(idx):
        workload = make_workload(p.mix, p.records, p.operations,
                                 seed=p.seed)
        store = LsmStore(vfs, api.compute, root=f"/db{idx}")
        yield from store.open()
        for key, value in workload.records:
            yield from store.put(key, value)
        for req in workload.requests:
            yield from api.compute(HANDLE_REQ_CY)
            yield from net.sendto(sid, CLOUD_PORT, None, REQUEST_BYTES)
            if req.op is YcsbOp.READ:
                yield from store.get(req.key)
            elif req.op in (YcsbOp.INSERT, YcsbOp.UPDATE):
                yield from store.put(req.key, req.value)
            else:
                yield from store.scan(req.key, req.scan_len)
            yield from net.sendto(sid, CLOUD_PORT, None, RESULT_BYTES)
        yield from store.close()

    for i in range(p.warmup):
        yield from one_run(f"w{i}")
    marks = mark()
    start = api.sim.now
    for i in range(p.runs):
        yield from one_run(f"m{i}")
    return api.sim.now - start, marks


def _run_m3v(p: Fig10Point) -> Dict[str, float]:
    plat = fpga_system()
    if p.system == "m3v_shared":
        db_tile = fs_tile = net_tile = pager_tile = 1
    else:
        db_tile, fs_tile, net_tile, pager_tile = 2, 3, 1, 4

    plat.run_proc(boot_pager(plat, tile=pager_tile))
    fs = plat.run_proc(boot_m3fs(plat, tile=fs_tile, blocks=8192))
    net = plat.run_proc(boot_net(plat, tile=net_tile))
    env: Dict = {}
    out: Dict = {}

    def user_marks():
        return {a.name: a.user_ps for a in plat.controller.acts.values()}

    def db(api):
        yield from rendezvous(api, env, "fs_eps", "net_eps")
        vfs = M3vVfs(FsClient(api, *env["fs_eps"]))
        netc = NetClient(api, *env["net_eps"])
        out["total_ps"], out["marks"] = yield from _bench(
            api, vfs, netc, p, user_marks)

    act = plat.run_proc(plat.controller.spawn("db", db_tile, db,
                                              pager="pager"))
    env["fs_eps"] = plat.run_proc(connect_fs(plat, act, fs))
    env["net_eps"] = plat.run_proc(connect_net(plat, act, net))
    plat.sim.run_until_event(act.exit_event, limit=10**16)

    # user/system split (section 6.5.2): time spent in the fs and net
    # services is system time; the database, pager and TileMux count as
    # user time ("for implementation-specific reasons").
    marks = out["marks"]
    sys_ps = sum(a.user_ps - marks.get(a.name, 0)
                 for a in plat.controller.acts.values()
                 if a.name in ("m3fs", "net"))
    total = out["total_ps"] / p.runs / 1e12
    sys_s = sys_ps / p.runs / 1e12
    return {"total_s": total, "sys_s": sys_s,
            "user_s": max(0.0, total - sys_s)}


def _run_linux(p: Fig10Point) -> Dict[str, float]:
    machine = linux_system(with_net=True)
    out: Dict = {}

    def prog(api):
        out["total_ps"], usage0 = yield from _bench(
            api, LinuxVfs(api), api, p, api.getrusage)
        usage1 = api.getrusage()
        out["user_s"] = usage1["user_s"] - usage0["user_s"]
        out["sys_s"] = usage1["sys_s"] - usage0["sys_s"]

    proc = machine.spawn("db", prog)
    machine.sim.run_until_event(proc.exit_event, limit=10**16)
    return {"total_s": out["total_ps"] / p.runs / 1e12,
            "user_s": out["user_s"] / p.runs,
            "sys_s": out["sys_s"] / p.runs}


# -- sweep decomposition (repro.runner) ---------------------------------------

def fig10_points(mixes=FIG10_MIXES, **size) -> List[Fig10Point]:
    """Every system for each of ``mixes``; ``size`` sets the other
    point fields (paper scale by default)."""
    return [Fig10Point(mix, system, **size)
            for mix in mixes for system in FIG10_SYSTEMS]


def run_fig10_point(pt: Fig10Point) -> Dict[str, float]:
    """{total_s, user_s, sys_s} for one (mix, system) bar group."""
    if pt.system == "linux":
        return _run_linux(pt)
    if pt.system in ("m3v_isolated", "m3v_shared"):
        return _run_m3v(pt)
    raise ValueError(f"unknown fig10 system {pt.system!r}")


def reduce_fig10(points: List[Fig10Point], values: List[Dict[str, float]]
                 ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{mix -> {system -> {total_s, user_s, sys_s}}}."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for pt, v in zip(points, values):
        results.setdefault(pt.mix, {})[pt.system] = v
    return results

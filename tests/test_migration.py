"""Live activity migration + controller rebalancer (ISSUE 10 tentpole).

Four layers:

* protocol correctness — an in-flight RPC conversation survives a
  mid-run migration exactly-once and in-order, with lazy send-EP
  retargeting converging afterwards;
* refusal safety — the controller declines migrations that would break
  invariants (unknown/exited activities, same-tile moves, service
  owners, EP-range collisions at the target) and declines them without
  side effects;
* the :class:`repro.kernel.rebalance.Rebalancer` — evacuates
  quarantined tiles and spreads hot tiles, within its migration budget;
* determinism — the full migration timeline (trace digest and counter
  sums) is byte-identical across ``PYTHONHASHSEED`` values and with the
  cross-tile causality check on or off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import PlacementSpec, SchedSpec, SystemConfig, build_system
from repro.mux.api import ActivityApi
from repro.mux.recovery import RecoveryPolicy, enable_recovery
from repro.services.boot import boot_m3fs
from repro.tiles import BOOM, ROCKET

LIMIT = 10**13
REPO = Path(__file__).resolve().parent.parent


def _rendezvous(api, env, *keys):
    while any(k not in env for k in keys):
        yield api.sim.timeout(1_000_000)


def _build(**cfg):
    cfg.setdefault("kind", "m3v")
    cfg.setdefault("n_proc_tiles", 4)
    cfg.setdefault("n_mem_tiles", 1)
    return build_system(SystemConfig(**cfg)).platform


# -- protocol correctness -----------------------------------------------------

def _run_migrating_rpc(n_calls=10, migrate_after_ps=2_000_000_000,
                       dst_tile=2):
    """Client on tile 0 calls a server on tile 1; the server is
    live-migrated to ``dst_tile`` mid-conversation.  Returns
    (platform, received payload list, migrate outcome)."""
    plat = _build()
    ctrl = plat.controller
    env, got = {}, []

    def server(api):
        yield from _rendezvous(api, env, "s_rep")
        for _ in range(n_calls):
            msg = yield from api.recv(env["s_rep"])
            got.append(msg.data)
            yield from api.reply(env["s_rep"], msg, data=msg.data * 2,
                                 size=16)

    def client(api):
        yield from _rendezvous(api, env, "c_sep")
        for i in range(n_calls):
            v = yield from api.call(env["c_sep"], env["c_rep"], data=i,
                                    size=16)
            assert v == i * 2, (i, v)
            yield from api.compute(200_000)

    srv = plat.run_proc(ctrl.spawn("server", 1, server))
    cli = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)

    plat.sim.run(until=plat.sim.now + migrate_after_ps)
    moved = plat.run_proc(ctrl.migrate(srv.act_id, dst_tile))
    # drain while the conversation is live: retargeting needs the peer
    # still resident (after exit there is nothing left to repoint)
    plat.sim.run(until=plat.sim.now + 1_000_000_000)
    plat.run_proc(ctrl.drain_retargets())
    plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    return plat, got, moved, srv


def test_mid_run_migration_is_exactly_once_in_order():
    plat, got, moved, srv = _run_migrating_rpc()
    assert moved is True
    assert got == list(range(10))            # no loss, no dup, no reorder
    assert srv.tile_id == 2
    stats = plat.stats
    assert stats.counter_value("ctrl/migrations") == 1
    assert stats.counter_value("tile1/sched/migrations_out") == 1
    assert stats.counter_value("tile2/sched/migrations_in") == 1
    # the client's send EP was lazily repointed at the new home, after
    # which the forward stubs carry no more traffic
    assert stats.counter_value("ctrl/retargets") >= 1


def test_migration_forwards_packets_in_flight():
    # migrate immediately: the first calls are still in flight, so the
    # source-side stubs must relay (or hold + flush) real packets
    plat, got, moved, _ = _run_migrating_rpc(migrate_after_ps=500_000)
    assert moved is True
    assert got == list(range(10))
    assert plat.stats.counter_value("dtu/migr_forwards") >= 0  # counter exists


def test_migrated_activity_can_migrate_again():
    plat, got, moved, srv = _run_migrating_rpc()
    ctrl = plat.controller
    assert moved and srv.tile_id == 2
    # second hop: tile 2 -> tile 3 (the activity has exited by now, so
    # this must be refused — exited contexts stay put) …
    assert plat.run_proc(ctrl.migrate(srv.act_id, 3)) is False


def test_double_hop_migration_mid_conversation():
    plat = _build()
    ctrl = plat.controller
    env, got = {}, []

    def server(api):
        yield from _rendezvous(api, env, "s_rep")
        for _ in range(12):
            msg = yield from api.recv(env["s_rep"])
            got.append(msg.data)
            yield from api.reply(env["s_rep"], msg, data=msg.data + 100,
                                 size=16)

    def client(api):
        yield from _rendezvous(api, env, "c_sep")
        for i in range(12):
            v = yield from api.call(env["c_sep"], env["c_rep"], data=i,
                                    size=16)
            assert v == i + 100
            yield from api.compute(150_000)

    srv = plat.run_proc(ctrl.spawn("server", 1, server))
    cli = plat.run_proc(ctrl.spawn("client", 0, client))
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)

    plat.sim.run(until=plat.sim.now + 1_500_000_000)
    assert plat.run_proc(ctrl.migrate(srv.act_id, 2)) is True
    plat.sim.run(until=plat.sim.now + 1_500_000_000)
    assert plat.run_proc(ctrl.migrate(srv.act_id, 3)) is True
    plat.sim.run_until_event(cli.exit_event, limit=LIMIT)
    assert got == list(range(12))
    assert srv.tile_id == 3
    assert plat.stats.counter_value("ctrl/migrations") == 2


# -- refusal safety -----------------------------------------------------------

def test_migrate_refuses_unknown_and_same_tile():
    plat = _build()
    ctrl = plat.controller

    def prog(api):
        yield from api.compute(50_000_000)

    act = plat.run_proc(ctrl.spawn("p", 1, prog))
    before = dict(ctrl._act_tiles)
    assert plat.run_proc(ctrl.migrate(9999, 2)) is False      # unknown act
    assert plat.run_proc(ctrl.migrate(act.act_id, 1)) is False  # src == dst
    assert plat.run_proc(ctrl.migrate(act.act_id, 99)) is False  # no such tile
    assert dict(ctrl._act_tiles) == before                    # no side effects
    assert plat.stats.counter_value("ctrl/migrate_refused") == 3
    assert plat.stats.counter_value("ctrl/migrations") == 0


def test_migrate_refuses_service_owner():
    plat = _build()
    ctrl = plat.controller
    fs = plat.run_proc(boot_m3fs(plat, tile=1, blocks=512))
    assert plat.run_proc(ctrl.migrate(fs.act.act_id, 2)) is False
    assert plat.stats.counter_value("ctrl/migrate_refused") == 1


def test_migrate_refuses_ep_range_collision():
    plat = _build()
    ctrl = plat.controller
    env = {}

    def blocked(api):
        yield from _rendezvous(api, env, "never")

    first = plat.run_proc(ctrl.spawn("first", 1, blocked))
    # crowd tile 2's EP allocator past `first`'s EP range
    for i in range(4):
        plat.run_proc(ctrl.spawn(f"crowd{i}", 2, blocked))
    assert plat.run_proc(ctrl.migrate(first.act_id, 2)) is False
    assert first.tile_id == 1


# -- the rebalancer -----------------------------------------------------------

def test_rebalancer_evacuates_quarantined_tile():
    plat = _build(placement=PlacementSpec(interval_us=200.0,
                                          cooldown_us=500.0))
    enable_recovery(plat, RecoveryPolicy(quarantine_faults=3))
    ctrl = plat.controller
    env = {}

    def worker(api):
        for _ in range(60):
            yield from api.compute(100_000)   # 1.25 ms at 80 MHz
            yield from api.yield_cpu()

    acts = [plat.run_proc(ctrl.spawn(f"w{i}", 1, worker)) for i in range(2)]
    plat.sim.run(until=plat.sim.now + 500_000_000)
    for _ in range(3):
        ctrl.report_tile_fault(1, "test")
    assert 1 in ctrl.quarantined
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    # the rebalancer moved the survivors off the quarantined tile
    assert plat.stats.counter_value("ctrl/migrations") >= 1
    assert all(act.tile_id != 1 for act in acts)
    assert all(tid != 1 for a, tid in ctrl._act_tiles.items()
               if a in {act.act_id for act in acts})


def test_rebalancer_spreads_hot_tile():
    plat = _build(placement=PlacementSpec(interval_us=200.0, hot_depth=2,
                                          spread=2, cooldown_us=1000.0))
    ctrl = plat.controller

    def worker(api):
        for _ in range(60):
            yield from api.compute(100_000)   # 1.25 ms at 80 MHz
            yield from api.yield_cpu()

    # four CPU-bound workers packed on tile 1; tiles 2 and 3 idle
    acts = [plat.run_proc(ctrl.spawn(f"w{i}", 1, worker)) for i in range(4)]
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    assert plat.stats.counter_value("ctrl/migrations") >= 1
    homes = {act.tile_id for act in acts}
    assert homes != {1}, "all workers still packed on the hot tile"


def test_rebalancer_respects_migration_budget():
    plat = _build(placement=PlacementSpec(interval_us=200.0, hot_depth=2,
                                          spread=2, cooldown_us=200.0,
                                          max_migrations=1))
    ctrl = plat.controller

    def worker(api):
        for _ in range(60):
            yield from api.compute(100_000)   # 1.25 ms at 80 MHz
            yield from api.yield_cpu()

    acts = [plat.run_proc(ctrl.spawn(f"w{i}", 1, worker)) for i in range(4)]
    for act in acts:
        plat.sim.run_until_event(act.exit_event, limit=LIMIT)
    assert plat.stats.counter_value("ctrl/migrations") <= 1


def test_rebind_rederives_library_charges():
    """A migrated activity may land on a core with another clock: the
    library's per-call charges follow the api to its new tile."""
    class Mux:  # what ActivityApi binds to
        def __init__(self, costs):
            self.vdtu = self.sim = None
            self.costs = costs

    api = ActivityApi(Mux(BOOM), act=None)
    assert next(api.fetch(0)) == BOOM.clock.cycles_to_ps(BOOM.lib_fetch)
    api.rebind(Mux(ROCKET))
    assert next(api.fetch(0)) == ROCKET.clock.cycles_to_ps(ROCKET.lib_fetch)
    assert ROCKET.clock.period_ps != BOOM.clock.period_ps


def test_placement_spec_validates():
    with pytest.raises(ValueError, match="must be positive"):
        PlacementSpec(interval_us=0)
    with pytest.raises(ValueError, match="hot_depth and spread"):
        PlacementSpec(hot_depth=0)
    with pytest.raises(ValueError, match="m3v-only"):
        SystemConfig(kind="m3x", placement=PlacementSpec())


def test_default_config_runs_no_rebalancer():
    plat = _build()
    assert getattr(plat, "rebalancer", None) is None
    # and no beacon processes exist: the sim should go completely idle
    plat.sim.run(until=10_000_000_000)
    assert plat.stats.counter_value("ctrl/migrations") == 0


# -- determinism --------------------------------------------------------------

# a migrating RPC conversation under an active rebalancer; prints the
# trace digest and every migration-relevant counter
MIGRATION_SNIPPET = """\
import hashlib
from repro.api import PlacementSpec, SystemConfig, build_system
from repro.sim.trace import capture
from repro.testing.golden import canonical_json

with capture() as tracer:
    plat = build_system(SystemConfig(
        kind="m3v", n_proc_tiles=4, n_mem_tiles=1,
        placement=PlacementSpec(interval_us=300.0, hot_depth=2, spread=2,
                                cooldown_us=900.0))).platform
    ctrl = plat.controller
    env, got = {}, []

    def rendezvous(api, *keys):
        while any(k not in env for k in keys):
            yield api.sim.timeout(1_000_000)

    def server(api):
        yield from rendezvous(api, "s_rep")
        for _ in range(8):
            msg = yield from api.recv(env["s_rep"])
            got.append(msg.data)
            yield from api.reply(env["s_rep"], msg, data=msg.data * 3,
                                 size=16)

    def client(api):
        yield from rendezvous(api, "c_sep")
        for i in range(8):
            v = yield from api.call(env["c_sep"], env["c_rep"], data=i,
                                    size=16)
            assert v == i * 3
            yield from api.compute(150_000)

    def worker(api):
        for _ in range(40):
            yield from api.compute(100_000)
            yield from api.yield_cpu()

    srv = plat.run_proc(ctrl.spawn("server", 1, server))
    cli = plat.run_proc(ctrl.spawn("client", 0, client))
    ws = [plat.run_proc(ctrl.spawn(f"w{i}", 1, worker)) for i in range(3)]
    sep, rep, rpl = plat.run_proc(ctrl.wire_channel(cli, srv, credits=2))
    env.update(s_rep=rep, c_sep=sep, c_rep=rpl)
    plat.sim.run_until_event(cli.exit_event, limit=10**13)
    for w in ws:
        plat.sim.run_until_event(w.exit_event, limit=10**13)
    plat.run_proc(ctrl.drain_retargets())

assert got == list(range(8)), got
digest = hashlib.sha256(canonical_json(tracer).encode()).hexdigest()
print("digest", digest)
for name in ("ctrl/migrations", "ctrl/migrate_refused", "ctrl/retargets",
             "dtu/migr_forwards"):
    print(name, plat.stats.counter_value(name))
"""


def _run(snippet: str, **env_overrides) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **env_overrides)
    env.pop("REPRO_SHARDS", None)
    env.update(env_overrides)
    out = subprocess.run([sys.executable, "-c", snippet],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_migration_timeline_identical_across_hashseed_and_shards():
    """The whole migration timeline — trace digest, migration and
    retarget counts — survives interpreter hash-seed changes and the
    cross-tile causality check bit-for-bit."""
    outputs = {
        _run(MIGRATION_SNIPPET, PYTHONHASHSEED="0"),
        _run(MIGRATION_SNIPPET, PYTHONHASHSEED="1"),
        _run(MIGRATION_SNIPPET, PYTHONHASHSEED="0", REPRO_SHARDS="1"),
        _run(MIGRATION_SNIPPET, PYTHONHASHSEED="31337", REPRO_SHARDS="1"),
    }
    assert len(outputs) == 1, \
        f"migration timeline diverges across hash seeds/checks: {outputs}"
    sample = next(iter(outputs))
    assert "ctrl/migrations 0" not in sample, \
        f"workload never migrated — the determinism check is vacuous:\n{sample}"

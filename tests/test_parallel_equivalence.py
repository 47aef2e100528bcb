"""Differential test layer for the cross-shard causality check.

Three layers of evidence that a checked run is *indistinguishable* from
an unchecked one, plus the check's own verdicts:

1. **Golden conformance** — every committed digest replays byte-identical
   under shards ∈ {serial, 2, 4} × {calendar, heap}, in strict mode.
   :class:`repro.sim.parallel.CausalityCheckedQueue` pops straight from
   the serial queue, so this must hold exactly, not approximately.
2. **Property-based differential testing** — hypothesis generates random
   inter-tile send/receive schedules (same-timestamp ties, messages
   landing exactly on the lookahead boundary) and runs them with and
   without the check; event histories and canonical traces must be
   identical, under strict causality checking.
3. **Mutation re-runs** — the PR-1 mutation tests (a deliberately broken
   mechanism must be *caught* by the online invariant checkers) repeat
   under ``REPRO_SHARDS=4``: the checkers observe the same trace stream,
   so a bug the serial engine surfaces must also surface checked.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_system
from repro.sim import Simulator, engine
from repro.sim.parallel import (
    GLOBAL_SHARD,
    CausalityCheckedQueue,
    CausalityError,
    ShardPlan,
    partition_tiles,
)
from repro.sim.trace import capture
from repro.testing.golden import (
    GOLDEN_DIR,
    canonical_events,
    digest,
    diff_digest,
    load_golden,
    record_trace,
)

GOLDEN_NAMES = sorted(p.stem for p in Path(GOLDEN_DIR).glob("*.json"))

SHARD_CONFIGS = [
    pytest.param("", id="serial"),
    pytest.param("2", id="shards2"),
    pytest.param("4", id="shards4"),
]
SCHEDULERS = ["calendar", "heap"]


# -- layer 1: golden conformance ----------------------------------------------

@pytest.mark.golden
@pytest.mark.parametrize("name", GOLDEN_NAMES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("shards", SHARD_CONFIGS)
def test_golden_digest_survives_sharding(name, scheduler, shards,
                                         monkeypatch):
    if shards:
        monkeypatch.setenv("REPRO_SHARDS", shards)
    else:
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
    # strict mode: a lookahead violation anywhere in the platform build
    # or the workload fails the test instead of being silently counted
    monkeypatch.setenv("REPRO_SHARD_STRICT", "1")
    engine.set_default_scheduler(scheduler)
    try:
        actual = digest(record_trace(name))
    finally:
        engine.set_default_scheduler(None)
    problems = diff_digest(load_golden(name), actual)
    assert not problems, (
        f"{name} diverged under shards={shards or 'serial'} "
        f"scheduler={scheduler}:\n  " + "\n  ".join(problems))


# -- layer 2: property-based differential testing -----------------------------
#
# A synthetic multi-tile workload small enough for hypothesis to shrink:
# every tile runs a program of "local" steps (timeouts with deliberately
# colliding timestamps) and "send" steps (an event created in the
# *destination* tile's shard and triggered ``lookahead + slack`` ahead —
# slack 0 lands exactly on the conservative boundary).

LOOKAHEAD = 10

_OP = st.one_of(
    st.tuples(st.just("local"), st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.lists(_OP, max_size=6), min_size=2, max_size=5)


def _run_program(programs, scheduler, shards):
    """Returns (history, canonical trace, final now) for one engine."""
    n_tiles = len(programs)
    history = []
    with capture() as tracer:
        sim = Simulator(scheduler=scheduler, shards=shards,
                        lookahead=LOOKAHEAD, shard_strict=True)
        if shards:
            plan = ShardPlan.for_tiles(list(range(n_tiles)), shards,
                                       LOOKAHEAD)
            sim.set_shard_plan(plan)
            shard_of = plan.shard_of
        else:
            shard_of = lambda tid: GLOBAL_SHARD

        def tile_proc(tid, ops):
            for kind, a, b in ops:
                if kind == "local":
                    yield sim.timeout(a)
                    history.append(("local", tid, sim.now, b))
                else:
                    dst = (tid + 1 + a) % n_tiles
                    with sim.shard_scope(shard_of(dst)):
                        ev = sim.event()
                    ev.callbacks.append(
                        lambda e, dst=dst, b=b:
                            history.append(("recv", dst, sim.now, b)))
                    ev.succeed(delay=LOOKAHEAD + b)
                    history.append(("send", tid, sim.now, b))

        for tid, ops in enumerate(programs):
            with sim.shard_scope(shard_of(tid)):
                sim.process(tile_proc(tid, ops), name=f"tile{tid}")
        sim.run()
    return history, canonical_events(tracer), sim.now


@given(programs=_PROGRAMS, n_shards=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_sharded_engine_is_serial_engine(programs, n_shards):
    for scheduler in SCHEDULERS:
        serial = _run_program(programs, scheduler, shards=0)
        sharded = _run_program(programs, scheduler, shards=n_shards)
        assert sharded[0] == serial[0], (
            f"event histories diverged (scheduler={scheduler}, "
            f"shards={n_shards})")
        assert sharded[1] == serial[1], (
            f"canonical traces diverged (scheduler={scheduler}, "
            f"shards={n_shards})")
        assert sharded[2] == serial[2]


@given(programs=_PROGRAMS)
@settings(max_examples=10, deadline=None)
def test_calendar_and_heap_agree_sharded(programs):
    """The cross-scheduler tie-order invariant (DESIGN.md §13) holds
    with the causality check wrapped around either scheduler."""
    cal = _run_program(programs, "calendar", shards=2)
    hp = _run_program(programs, "heap", shards=2)
    assert cal[0] == hp[0]
    assert cal[1] == hp[1]


# -- causality policing --------------------------------------------------------

def _two_shard_sim(**kwargs):
    sim = Simulator(shards=2, lookahead=LOOKAHEAD, **kwargs)
    sim.set_shard_plan(ShardPlan.for_tiles([0, 1], 2, LOOKAHEAD))
    return sim


def test_lookahead_violation_is_counted():
    # pin non-strict: REPRO_SHARD_STRICT=1 in the environment (the CI
    # parallel job) must not turn the counted violation into a raise
    sim = _two_shard_sim(shard_strict=False)

    def offender():
        yield sim.timeout(5)
        with sim.shard_scope(1):
            ev = sim.event()
        ev.callbacks.append(lambda e: None)
        ev.succeed(delay=LOOKAHEAD - 1)   # under the conservative bound

    with sim.shard_scope(0):
        sim.process(offender(), name="offender")
    sim.run()
    assert sim.shard_stats.violations == 1


def test_lookahead_violation_raises_in_strict_mode():
    sim = _two_shard_sim(shard_strict=True)

    def offender():
        yield sim.timeout(5)
        with sim.shard_scope(1):
            ev = sim.event()
        ev.succeed(delay=LOOKAHEAD - 1)

    with sim.shard_scope(0):
        sim.process(offender(), name="offender")
    with pytest.raises(CausalityError):
        sim.run()


def test_boundary_send_is_not_a_violation():
    sim = _two_shard_sim(shard_strict=True)
    seen = []

    def sender():
        yield sim.timeout(3)
        with sim.shard_scope(1):
            ev = sim.event()
        ev.callbacks.append(lambda e: seen.append(sim.now))
        ev.succeed(delay=LOOKAHEAD)       # exactly on the boundary

    with sim.shard_scope(0):
        sim.process(sender(), name="sender")
    sim.run()
    assert seen == [3 + LOOKAHEAD]
    assert sim.shard_stats.violations == 0


# -- partitioning & plumbing ---------------------------------------------------

def test_partition_tiles_block():
    block = partition_tiles(list(range(8)), 4)
    assert block == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def test_shard_plan_caps_at_tile_count():
    plan = ShardPlan.for_tiles([10, 11], 8, LOOKAHEAD)
    assert plan.n_shards == 2
    assert plan.shard_of(10) != plan.shard_of(11)
    assert plan.shard_of(99) == GLOBAL_SHARD


def test_env_selects_sharding(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "3")
    sim = Simulator()
    assert sim.shards == 3
    assert isinstance(sim._eq, CausalityCheckedQueue)
    monkeypatch.delenv("REPRO_SHARDS")
    assert Simulator().shards == 0


def test_shard_stats_accounting():
    programs = [[("send", 0, 0), ("local", 1, 0)],
                [("local", 2, 1)]]
    _, _, _ = _run_program(programs, "calendar", shards=2)
    sim = Simulator(shards=2, lookahead=LOOKAHEAD)
    sim.set_shard_plan(ShardPlan.for_tiles([0, 1], 2, LOOKAHEAD))

    def prog(tid):
        yield sim.timeout(1)
        with sim.shard_scope(1 - tid):
            ev = sim.event()
        ev.callbacks.append(lambda e: None)
        ev.succeed(delay=LOOKAHEAD)

    for tid in range(2):
        with sim.shard_scope(tid):
            sim.process(prog(tid), name=f"t{tid}")
    sim.run()
    stats = sim.shard_stats.as_dict()
    assert stats["events"] > 0
    assert stats["cross_pushes"] == 2
    assert stats["violations"] == 0


def test_fig9_64_shard_stats_are_pinned(monkeypatch):
    """The check's outputs on the 64-tile fig9 point behind BENCH's
    ``fig9_64_sharded`` entry: every cross-shard push goes through the
    NoC, and the per-shard tallies sum to its 88,598 events."""
    from repro.core.exps import fig9

    systems = []

    def build(config):
        systems.append(build_system(config))
        return systems[-1]

    monkeypatch.setattr(fig9, "build_system", build)
    fig9.run_fig9_point(fig9.Fig9Point("m3v", 64, trace="find", runs=1,
                                       find_dirs=2, find_files=3, shards=4))
    (system,) = systems
    stats = system.sim.shard_stats.as_dict()
    assert stats["cross_pushes"] == 918
    assert stats["violations"] == 0
    assert stats["events_by_shard"] == {
        GLOBAL_SHARD: 2851, 0: 23377, 1: 23378, 2: 23377, 3: 15615}
    assert stats["events"] == 88598


# -- layer 3: the invariant checkers under REPRO_SHARDS=4 ---------------------
#
# The five online checkers subscribe to the trace stream; a checked run
# produces the identical stream (layer 1), so every mutation the serial
# suite catches must be caught under the check too.  Re-run the
# invariant-checker mutation tests — and one green control — with the
# env knob set.

import tests.test_invariants_systems as _inv


@pytest.fixture
def _sharded_env(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "4")
    monkeypatch.setenv("REPRO_SHARD_STRICT", "1")
    return monkeypatch


def test_mutation_ownership_bypass_caught_sharded(_sharded_env):
    _inv.test_mutation_ownership_bypass_is_caught(_sharded_env)


def test_mutation_forgotten_cur_act_caught_sharded(_sharded_env):
    _inv.test_mutation_forgotten_cur_act_decrement_is_caught(_sharded_env)


def test_unmutated_control_still_green_sharded(_sharded_env):
    _inv.test_unmutated_foreign_fetch_is_refused()


def test_invariants_under_faults_sharded(_sharded_env):
    _inv.test_m3v_invariants_under_faults(seed=11)
